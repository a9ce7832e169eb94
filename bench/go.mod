// The benchmark is a module of its own so it builds from its own directory
// with its own build file; the replace directive points it at the system
// under test one directory up, whose internal packages it may import
// because its module path sits under "wow".
module wow/bench

go 1.22

require wow v0.0.0

replace wow => ../
