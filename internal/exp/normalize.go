// Canonical parameter normalization: the hashing contract behind the
// serve layer's content-addressed result cache. Two submissions that
// denote the same run — explicit parameters spelling out the schema
// defaults, JSON numbers arriving as float64 where the schema says int,
// maps built in different key orders — must normalize to one canonical
// form before hashing, or the cache splits an entry per spelling and
// repeated queries pay full SPICE price for nothing.
package exp

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// NormalizeParams resolves p against the named workload's schema exactly
// the way Run does: unknown names error with the valid parameter list,
// values coerce to their declared kinds, and every parameter the caller
// omitted is filled with its schema default. The result is the canonical
// parameter set — a defaulted-equivalent submission ({"n": 64} versus
// nothing for a workload whose n defaults to 64) normalizes to the same
// map, which is what makes it safe to hash (see CanonicalParams).
func NormalizeParams(name string, p Params) (Params, error) {
	w, err := LookupWorkload(name)
	if err != nil {
		return nil, err
	}
	return resolveParams(w, p)
}

// CanonicalParams renders a parameter map as one deterministic string:
// keys sorted, each value in a kind-stable spelling (floats at full
// precision via strconv 'g', strings quoted). It is the parameter part of
// the run-key hashing contract (core.RunSpec.Key) — changing the
// rendering invalidates every cached result, so treat the format as
// frozen and bump core.EngineVersion if it ever has to move.
func CanonicalParams(p Params) string {
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + canonicalValue(p[k])
	}
	return strings.Join(parts, ",")
}

// canonicalValue spells one post-coercion parameter value
// deterministically; it is the per-value half of CanonicalParams and
// shares its frozen-format contract.
func canonicalValue(v any) string {
	switch x := v.(type) {
	case int:
		return strconv.Itoa(x)
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	case bool:
		return strconv.FormatBool(x)
	case string:
		return strconv.Quote(x)
	default:
		// Unreachable after coercion; kept total so a future kind fails
		// loudly in tests rather than silently hashing %v of a pointer.
		return fmt.Sprintf("%v", x)
	}
}
