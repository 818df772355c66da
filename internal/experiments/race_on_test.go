//go:build race

package experiments

// raceEnabled: the race detector allocates on its own account, so exact
// allocation budgets are only held without it.
const raceEnabled = true
