package hmm

// Test-only hooks for the external hmm_test package, which checks the
// search against the oracles on the served graph and acoustic models.
var (
	OracleDecode      = oracleDecode
	OracleDecodeNBest = oracleDecodeNBest
)
