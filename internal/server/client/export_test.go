package client

import "time"

// SetFirstByteTimeout shortens the first-byte limit for a test outside
// the package and returns the call that restores it.
func SetFirstByteTimeout(d time.Duration) (restore func()) {
	old := firstByteTimeout
	firstByteTimeout = d
	return func() { firstByteTimeout = old }
}
