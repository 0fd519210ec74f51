// flatbench is a module of its own so the benchmark builds with its own
// build file; the replace points at the repository it measures.
module flatnet/bench

go 1.22

require flatnet v0.0.0

replace flatnet => ../
