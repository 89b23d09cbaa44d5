package vm

// Ramp returns n bytes with byte i equal to byte(i), the payload pattern
// the benchmarks and workloads write into simulated memory. The pattern
// repeats every 256 bytes, so past the first 256 it doubles by copying.
func Ramp(n int) []byte {
	b := make([]byte, n)
	for i := range min(n, 256) {
		b[i] = byte(i)
	}
	for k := 256; k < n; k *= 2 {
		copy(b[k:], b[:k])
	}
	return b
}

// RampView returns the n bytes byte(c), byte(c+1), ..., byte(c+n-1) as a
// view into pat, which must be Ramp(m) with m >= n+255. The pattern
// repeats every 256 bytes, so the view starts at c mod 256. Its capacity
// ends with it, so an append cannot write into pat.
func RampView(pat []byte, c, n int) []byte {
	o := c & 255
	return pat[o : o+n : o+n]
}
