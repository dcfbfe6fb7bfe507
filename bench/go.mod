// The benchmark is its own module so that it builds with its own build file
// and stays out of the root module's `go build ./...`; its import path sits
// under the root module's, which is what lets it import robustatomic/internal.
module robustatomic/bench

go 1.22

require robustatomic v0.0.0

replace robustatomic => ../
