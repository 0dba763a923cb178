package main

import (
	"bytes"
	"math/rand"

	"github.com/crowder/crowder"
	"github.com/crowder/crowder/internal/dataset"
	"github.com/crowder/crowder/internal/record"
)

// canonicalData is the generator seed of the Restaurant and Product
// tables, the instances the examples and cmd/calibrate use. Every run
// seed resolves the same records, so figures compare across seeds; the
// run seed seeds the crowd and, except in session-delta, shuffles the
// records' order (which records arrive in which round). Only ScaleN
// draws its table from the run seed: its figures barely move with the
// draw.
const canonicalData = 1

// input is one generated table: rows in the order the program receives
// them, their sources (nil for a single-source table), and the ground
// truth the simulated crowd's oracle and the F1 check share.
type input struct {
	schema []string
	rows   [][]string
	src    []int
	oracle []crowder.Pair
	truth  map[crowder.Pair]bool
}

// fromDataset copies a generated dataset into program inputs.
func fromDataset(d *dataset.Dataset) *input {
	in := &input{schema: d.Table.Schema, truth: map[crowder.Pair]bool{}}
	for i, rec := range d.Table.Records {
		in.rows = append(in.rows, rec.Values)
		if len(d.Table.Source) > 0 {
			in.src = append(in.src, d.Table.Source[i])
		}
	}
	for _, p := range d.Matches.Slice() {
		in.addTruth(int(p.A), int(p.B))
	}
	return in
}

func (in *input) addTruth(a, b int) {
	if a > b {
		a, b = b, a
	}
	p := crowder.Pair{A: a, B: b}
	in.truth[p] = true
	in.oracle = append(in.oracle, p)
}

// shuffled returns the rows (and their sources) in a seeded random order
// with the truth remapped. Generators append duplicates after their base records, so
// an in-order stream would see no match until its last deltas.
func (in *input) shuffled(seed int64) *input {
	perm := rand.New(rand.NewSource(seed)).Perm(len(in.rows))
	where := make([]int, len(perm))
	out := &input{schema: in.schema, rows: make([][]string, len(perm)), truth: map[crowder.Pair]bool{}}
	if in.src != nil {
		out.src = make([]int, len(perm))
	}
	for np, old := range perm {
		out.rows[np] = in.rows[old]
		if in.src != nil {
			out.src[np] = in.src[old]
		}
		where[old] = np
	}
	for _, p := range in.oracle {
		out.addTruth(where[p.A], where[p.B])
	}
	return out
}

// table builds a fresh program table from the first n rows.
func (in *input) table(n int) *crowder.Table {
	t := crowder.NewTable(in.schema...)
	for i, row := range in.rows[:n] {
		if in.src != nil {
			t.AppendFrom(in.src[i], row...)
		} else {
			t.Append(row...)
		}
	}
	return t
}

// recordTable builds an internal table of the first n rows, for the
// layer probes that call record and simjoin directly.
func (in *input) recordTable(n int) *record.Table {
	t := record.NewTable(in.schema...)
	for i, row := range in.rows[:n] {
		if in.src != nil {
			t.AppendFrom(in.src[i], row...)
		} else {
			t.Append(row...)
		}
	}
	return t
}

// counts is a confusion count of accepted matches against the truth.
type counts struct{ tp, fp, fn int }

func (c *counts) add(o counts) { c.tp += o.tp; c.fp += o.fp; c.fn += o.fn }

func (c counts) f1() float64 {
	if c.tp == 0 {
		return 0
	}
	p := float64(c.tp) / float64(c.tp+c.fp)
	r := float64(c.tp) / float64(c.tp+c.fn)
	return 2 * p * r / (p + r)
}

// score compares the matches accepted at confidence ≥ 0.5 with the truth
// among the first n records.
func (in *input) score(ms []crowder.Match, n int) counts {
	var c counts
	for _, m := range ms {
		if m.Confidence < 0.5 {
			continue
		}
		if in.truth[m.Pair] {
			c.tp++
		} else {
			c.fp++
		}
	}
	for p := range in.truth {
		if p.B < n {
			c.fn++
		}
	}
	c.fn -= c.tp
	return c
}

// sameMatches reports whether two match lists are bit-identical.
func sameMatches(a, b []crowder.Match) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// renderAccepted is the library read: the accepted matches written as
// CSV, the payload a client of the library fetches.
func renderAccepted(res *crowder.Result) (int, error) {
	var buf bytes.Buffer
	err := crowder.WriteMatchesCSV(&buf, res.Accepted())
	return buf.Len(), err
}
