package explore

// NewFreshSharded returns a newly built exact store, never a recycled one,
// for the tests that measure what a new store takes.
var NewFreshSharded = newSharded
