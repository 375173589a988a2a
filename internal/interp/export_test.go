package interp

// RunOracle runs the handler interpreter of oracle_test.go on it.
var RunOracle = (*Interp).runOracle
