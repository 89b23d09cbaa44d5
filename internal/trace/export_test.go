package trace

// OnTrack returns the same position on another track of the same
// process, for tests that place spans on the send and HCA tracks.
func (c Ctx) OnTrack(track int) Ctx {
	c.tid = int32(track)
	return c
}
