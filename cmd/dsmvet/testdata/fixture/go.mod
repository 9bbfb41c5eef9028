// A module of its own, so that `go list` can load these packages and the
// analyzers treat them as out-of-repo fixtures, in scope for every rule.
module fixture

go 1.24
