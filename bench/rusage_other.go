//go:build !unix

package main

// Without getrusage the two process-level runtime.* metrics read 0; every
// other metric is unaffected.
func processCPUSeconds() float64 { return 0 }
func peakRSSMB() float64         { return 0 }
