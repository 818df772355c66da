//go:build race

package nn

// raceEnabled: the race detector allocates on its own account, so exact
// allocation counts are only held without it.
const raceEnabled = true
