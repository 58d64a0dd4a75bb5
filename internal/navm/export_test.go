package navm

// CheckIterative is checkIterative for FuzzIterativeBlocks, which lives
// in package navm_test to build its plates with package fem.
var CheckIterative = checkIterative
