package stats

import (
	"math"
	"sort"
)

// insertionMax is the longest slice radixSort finishes with an insertion
// sort rather than another radix pass.
const insertionMax = 48

// sortFloat64s sorts values in place into exactly the bits sort.Float64s
// leaves. Without a NaN and without both signs of zero, ascending order
// admits one bit sequence, so an in-place MSD radix sort on each value's
// order-preserving key (American flag sort; McIlroy, Bostic and McIlroy,
// "Engineering radix sort", 1993) gives it. An input with a NaN, or with
// both −0 and +0, goes to sort.Float64s, whose placement of NaNs and of
// equal zeros this sort would not reproduce. It allocates nothing and
// starts no goroutine.
func sortFloat64s(values []float64) {
	var negZero, posZero bool
	for _, v := range values {
		switch {
		case v != v:
			sort.Float64s(values)
			return
		case v == 0:
			if math.Signbit(v) {
				negZero = true
			} else {
				posZero = true
			}
		}
	}
	if negZero && posZero {
		sort.Float64s(values)
		return
	}
	radixSort(values, 56)
}

// key maps a float64 to a uint64 whose unsigned order is the float's
// order: the sign bit flipped for a positive value, every bit for a
// negative one.
func key(v float64) uint64 {
	b := math.Float64bits(v)
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// radixSort sorts v, whose keys agree above bit shift+7, by the key byte
// at shift and then by each lower byte, bucket by bucket. Each level of
// the recursion keeps one 256-entry count array.
func radixSort(v []float64, shift uint) {
	if len(v) <= insertionMax {
		insertionSort(v)
		return
	}
	var count [256]int
	for _, x := range v {
		count[key(x)>>shift&0xff]++
	}
	permute(v, &count, shift)
	if shift == 0 {
		return
	}
	lo := 0
	for _, c := range count {
		radixSort(v[lo:lo+c], shift-8)
		lo += c
	}
}

// permute moves every value of v into its bucket by the key byte at
// shift, in place, given each bucket's size in count: American flag
// sort's cycle-leader pass. end[b] is the slot before which the next
// value of bucket b goes; each value is swapped straight to its bucket's
// end until the value for slot i turns up, and once slot i is filled its
// bucket is whole.
func permute(v []float64, count *[256]int, shift uint) {
	var end [256]int
	n := 0
	for b, c := range count {
		n += c
		end[b] = n
	}
	for i := 0; i < len(v); {
		x := v[i]
		b := key(x) >> shift & 0xff
		for {
			end[b]--
			j := end[b]
			if j <= i {
				break
			}
			x, v[j] = v[j], x
			b = key(x) >> shift & 0xff
		}
		v[i] = x
		i += count[b]
	}
}

// insertionSort sorts a short v by straight insertion. Without a NaN or
// both signs of zero, < orders the values as their keys do.
func insertionSort(v []float64) {
	for i := 1; i < len(v); i++ {
		x := v[i]
		j := i
		for ; j > 0 && x < v[j-1]; j-- {
			v[j] = v[j-1]
		}
		v[j] = x
	}
}
