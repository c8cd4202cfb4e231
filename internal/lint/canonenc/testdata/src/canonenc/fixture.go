// Package canonenc is the analyzer fixture: forbidden constructs
// inside digest-scoped functions, the same constructs left alone
// outside scope, and the //slx:rawdigest exemption.
package canonenc

import (
	"fmt"
	"hash/fnv"
	"strings"
)

type mon struct{ parts []string }

// digestParts is scoped by name ("digest").
func digestParts(parts []string) uint64 {
	h := uint64(14695981039346656037)    // want `raw digest constant`
	h *= 0x9e3779b97f4a7c15              // want `raw digest constant`
	joined := strings.Join(parts, ",")   // want `strings\.Join in digest code`
	rendered := fmt.Sprintf("%v", parts) // want `fmt\.Sprintf in digest code`
	hasher := fnv.New64a()               // want `hash/fnv in digest code`
	_, _ = hasher.Write([]byte(joined + rendered))
	return h
}

// StateDigest is scoped as a hook method body.
func (m *mon) StateDigest() (uint64, bool) {
	return uint64(len(fmt.Sprint(m.parts))), true // want `fmt\.Sprint in digest code`
}

// digestByteImpl is the fixture's primitive home: the raw constants
// are exempt.
//
//slx:rawdigest fixture: the primitives' one home
func digestByteImpl(h uint64, b byte) uint64 {
	return (h ^ uint64(b)) * 1099511628211 * 0xbf58476d1ce4e5b9
}

// mixWord is out of scope: a mix constant outside digest code (a
// generator's seeding, say) is fine.
func mixWord(z uint64) uint64 { return z * 0x94d049bb133111eb }

// render is out of scope: fmt and joins are fine in display code.
func render(parts []string) string {
	return fmt.Sprintf("%v", strings.Join(parts, ","))
}

var _ = []any{digestParts, digestByteImpl, mixWord, render, (*mon)(nil)}
