//go:build !race

package async

const raceEnabled = false
