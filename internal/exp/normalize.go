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
)

// NormalizeParams resolves p against the named workload's schema exactly
// the way Run does: unknown names error with the valid parameter list,
// values coerce to their declared kinds, and every parameter the caller
// omitted is filled with its schema default. The result is the canonical
// parameter set — a defaulted-equivalent submission ({"n": 64} versus
// nothing for a workload whose n defaults to 64) normalizes to the same
// map, which is what makes it safe to hash (see AppendCanonicalParams).
func NormalizeParams(name string, p Params) (Params, error) {
	w, err := LookupWorkload(name)
	if err != nil {
		return nil, err
	}
	return resolveParams(w, p)
}

// AppendCanonicalParams appends a parameter map's one deterministic
// rendering to dst: "name=value" pairs joined by commas, names sorted,
// each value in a kind-stable spelling (ints in decimal, floats at full
// precision via strconv 'g', strings quoted). It is the parameter part of
// the run-key hashing contract (core.RunSpec.Resolve) — changing the
// rendering invalidates every cached result, so treat the format as
// frozen and bump core.EngineVersion if it ever has to move. A schema's
// handful of names sort in a stack array, so a dst with room allocates
// nothing.
func AppendCanonicalParams(dst []byte, p Params) []byte {
	var buf [8]string
	keys := buf[:0]
	for k := range p {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for i, k := range keys {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, k...)
		dst = append(dst, '=')
		switch x := p[k].(type) {
		case int:
			dst = strconv.AppendInt(dst, int64(x), 10)
		case float64:
			dst = strconv.AppendFloat(dst, x, 'g', -1, 64)
		case bool:
			dst = strconv.AppendBool(dst, x)
		case string:
			dst = strconv.AppendQuote(dst, x)
		default:
			// Unreachable after coercion (NormalizeParams); a future kind
			// must fail loudly rather than hash %v of a pointer.
			panic(fmt.Sprintf("exp: param %s has no canonical spelling for %T", k, x))
		}
	}
	return dst
}
