//go:build !linux

package main

import (
	"errors"
	"syscall"
)

func childAttr() *syscall.SysProcAttr { return nil }

// rssPeakMB needs /proc; elsewhere the traced run fails rather than
// report a made-up number.
func rssPeakMB(int) (float64, error) {
	return 0, errors.New("peak RSS is read from /proc, which this platform lacks")
}
