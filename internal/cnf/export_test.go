package cnf

// PrefixBranchesOf exposes the branch IDs the shared encoding recorded
// for check i's prefix.
func PrefixBranchesOf(ea *EncodedAll, i int) []int { return ea.prefixBranches[i] }
