//go:build race

package obs

// raceEnabled: under the race detector sync.Pool drops what it is given,
// so fmt allocates on its own account and exact counts are only held
// without it.
const raceEnabled = true
