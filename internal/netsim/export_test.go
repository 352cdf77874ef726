package netsim

// NewOracleProbe exposes the oracle probe to the external test package
// (golden_matrix_test.go).
var NewOracleProbe = newOracleProbe

// Counts returns the reallocations checked and the flow rates compared.
func (p *oracleProbe) Counts() (reallocs, compared int) { return p.reallocs, p.compared }
