//go:build !contracts

package contract

// Enabled reports whether the checks are compiled in (build tag
// contracts).
const Enabled = false
