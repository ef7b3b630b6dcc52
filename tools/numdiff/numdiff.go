//go:build ignore

// Numdiff compares two JSON documents value by value and prints one
// line: the first path where their structure or a string differs, or
// else the largest relative difference |a−b|/max(|a|,|b|) between the
// numbers at equal paths, with its path; "not JSON" when either file
// holds anything but one JSON value. Numbers are compared as the
// float64s their text parses to, so a one-ulp move shows as about
// 1e-16. Object keys are walked in sorted order and paths are spelled
// as jq addresses them (.[0].rows[3].std_pp). `make parent-cmp` appends
// the line to the message of each JSON body that differs from the base
// revision's.
//
//	go run tools/numdiff/numdiff.go <a.json> <b.json>
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
)

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: go run numdiff.go <a.json> <b.json>")
		os.Exit(2)
	}
	a, okA := decode(os.Args[1])
	b, okB := decode(os.Args[2])
	if !okA || !okB {
		fmt.Println("not JSON")
		return
	}
	var d diff
	if path, what := d.walk("", a, b); what != "" {
		fmt.Printf("%s differs at %s\n", what, jq(path))
		return
	}
	if !d.moved {
		fmt.Println("largest relative difference 0: every value is equal")
		return
	}
	fmt.Printf("largest relative difference %.3g at %s: %s vs %s\n", d.rel, jq(d.path), d.a, d.b)
}

// decode reads the file at path as one JSON value, numbers kept as
// their text; ok is false when the file holds anything else.
func decode(path string) (v any, ok bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	if err := dec.Decode(&v); err != nil {
		return nil, false
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, false
	}
	return v, true
}

// diff holds the largest relative difference seen so far between two
// numbers at one path, that path and both numbers; moved is false until
// a number's text differs.
type diff struct {
	moved bool
	rel   float64
	path  string
	a, b  json.Number
}

// walk compares a and b at path. It returns the path and the kind of
// the first structural or string difference ("structure" or "string"),
// what "" when there is none, and records every number that moved.
func (d *diff) walk(path string, a, b any) (string, string) {
	switch x := a.(type) {
	case map[string]any:
		y, ok := b.(map[string]any)
		if !ok || len(x) != len(y) {
			return path, "structure"
		}
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			yk, ok := y[k]
			if !ok {
				return member(path, k), "structure"
			}
			if p, what := d.walk(member(path, k), x[k], yk); what != "" {
				return p, what
			}
		}
	case []any:
		y, ok := b.([]any)
		if !ok || len(x) != len(y) {
			return path, "structure"
		}
		for i := range x {
			if p, what := d.walk(path+"["+strconv.Itoa(i)+"]", x[i], y[i]); what != "" {
				return p, what
			}
		}
	case json.Number:
		y, ok := b.(json.Number)
		if !ok {
			return path, "structure"
		}
		if x != y {
			d.number(path, x, y)
		}
	case string:
		if y, ok := b.(string); !ok {
			return path, "structure"
		} else if x != y {
			return path, "string"
		}
	default: // bool or nil
		if a != b {
			return path, "structure"
		}
	}
	return "", ""
}

// number records the relative difference between a and b at path if it
// is the largest yet. A number whose text is out of float64 range
// counts as an infinite difference.
func (d *diff) number(path string, a, b json.Number) {
	x, errA := strconv.ParseFloat(string(a), 64)
	y, errB := strconv.ParseFloat(string(b), 64)
	rel := 0.0
	if m := math.Max(math.Abs(x), math.Abs(y)); m > 0 {
		rel = math.Abs(x-y) / m
	}
	if errA != nil || errB != nil || math.IsNaN(rel) {
		rel = math.Inf(1)
	}
	if !d.moved || rel > d.rel {
		d.moved, d.rel, d.path, d.a, d.b = true, rel, path, a, b
	}
}

// member spells the member k of the object at path: .k for an
// identifier, ["k"] for any other key.
func member(path, k string) string {
	ident := k != ""
	for i, c := range k {
		ident = ident && (c == '_' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || i > 0 && '0' <= c && c <= '9')
	}
	if ident {
		return path + "." + k
	}
	return path + "[" + strconv.Quote(k) + "]"
}

// jq spells a path as jq addresses it: "." for the whole document and a
// leading dot before a first [.
func jq(path string) string {
	if path == "" || path[0] == '[' {
		return "." + path
	}
	return path
}
