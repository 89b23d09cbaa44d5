package cli

import (
	"fmt"
	"os"
	"strconv"
	"strings"
)

// Environment-variable plumbing for the shared flags. Every cmd tool
// resolves flag defaults through these helpers, so a deployment can set
// REPRO_FAULTS / REPRO_TRACE / REPRO_POLICY / REPRO_CACHE once instead
// of repeating flags on every invocation.
// Precedence is strict and uniform: an explicit flag beats the
// environment, the environment beats the built-in default. Malformed
// environment values fail exactly like malformed flag values — at Parse
// time, loudly, naming the value — never by silently falling back.

// EnvPrefix namespaces every environment variable the tools read.
const EnvPrefix = "REPRO_"

// EnvDefault returns the default value for a flag: the value of
// REPRO_<name> when set and non-empty, else def. The result feeds a
// flag registration, so a command-line flag still overrides it.
func EnvDefault(name, def string) string {
	if v := os.Getenv(EnvPrefix + name); v != "" {
		return v
	}
	return def
}

// ParseSize parses a byte count with an optional binary suffix: "4096",
// "64k", "256m", "2g" (case-insensitive). It is the parser behind
// -cache-max and REPRO_CACHE_MAX.
func ParseSize(s string) (int64, error) {
	t := strings.TrimSpace(strings.ToLower(s))
	if t == "" {
		return 0, fmt.Errorf("empty size")
	}
	shift := 0
	switch t[len(t)-1] {
	case 'k':
		shift, t = 10, t[:len(t)-1]
	case 'm':
		shift, t = 20, t[:len(t)-1]
	case 'g':
		shift, t = 30, t[:len(t)-1]
	}
	n, err := strconv.ParseInt(t, 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("%q is not a size (want bytes with optional k/m/g suffix)", s)
	}
	if shift > 0 && n > (1<<62)>>shift {
		return 0, fmt.Errorf("size %q overflows", s)
	}
	return n << shift, nil
}
