package core

// HostTables is the host classes' dispatch tables and the host methods'
// slots every derivation shares; DeriveHostTables derives them afresh.
func HostTables() ([][]int32, []int32) { return hostTables, hostSlot }

var DeriveHostTables = deriveHostTables
