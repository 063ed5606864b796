// The benchmark is a module of its own so it builds from bench/ alone
// against the simulator's packages one directory up.
module dedupsim/bench

go 1.22

require dedupsim v0.0.0

replace dedupsim => ../
