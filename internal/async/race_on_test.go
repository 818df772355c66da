//go:build race

package async

// raceEnabled: the race detector allocates on its own account, so exact
// allocation counts are only held without it.
const raceEnabled = true
