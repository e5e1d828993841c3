package table

import (
	"fmt"
	"testing"

	"mosaic/internal/schema"
	"mosaic/internal/value"
)

func codeFixture(t *testing.T, n int) *Table {
	t.Helper()
	sc := schema.MustNew(
		schema.Attribute{Name: "c", Kind: value.KindText},
		schema.Attribute{Name: "y", Kind: value.KindFloat},
	)
	tbl := New("t", sc)
	for i := 0; i < n; i++ {
		err := tbl.Append([]value.Value{
			value.Text(fmt.Sprintf("g%d", i%5)),
			value.Float(float64(i) * 1.5),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

// TestCodeCacheSharedAcrossSnapshots: repeated Codes/BinnedCodes calls —
// including from fresh snapshots of the same table, the repeated-IPF-fit
// pattern — serve the same backing arrays instead of re-materializing.
func TestCodeCacheSharedAcrossSnapshots(t *testing.T) {
	tbl := codeFixture(t, 100)
	s1 := tbl.Snapshot()
	cls1, bits1 := s1.Codes(0)
	cls2, bits2 := tbl.Snapshot().Codes(0) // fresh snapshot, same table
	if &cls1[0] != &cls2[0] || &bits1[0] != &bits2[0] {
		t.Error("Codes re-materialized across snapshots of an unchanged table")
	}
	b1, _ := s1.BinnedCodes(1, 10)
	b2, _ := tbl.Snapshot().BinnedCodes(1, 10)
	if &b1[0] != &b2[0] {
		t.Error("BinnedCodes re-materialized for the same (col, width)")
	}
	// Distinct widths are distinct cache entries with distinct codes.
	o1, ob1 := s1.BinnedCodes(1, 2)
	if &o1[0] == &b1[0] {
		t.Error("different widths share one cache slot")
	}
	_ = ob1
}

// TestCodeCachePrefixAfterAppend: a cached longer vector serves shorter
// snapshots as a prefix; an older short vector is replaced (not mutated)
// when a longer snapshot computes more rows — and the values always match a
// fresh computation.
func TestCodeCachePrefixAfterAppend(t *testing.T) {
	tbl := codeFixture(t, 50)
	short := tbl.Snapshot()
	sCls, sBits := short.Codes(0) // caches at length 50
	for i := 0; i < 30; i++ {
		if err := tbl.Append([]value.Value{value.Text("new"), value.Float(9)}); err != nil {
			t.Fatal(err)
		}
	}
	long := tbl.Snapshot()
	lCls, lBits := long.Codes(0) // recomputes at length 80
	if len(lCls) != 80 {
		t.Fatalf("long codes length = %d, want 80", len(lCls))
	}
	// The long vector's prefix equals the short one value-for-value.
	for i := range sCls {
		if sCls[i] != lCls[i] || sBits[i] != lBits[i] {
			t.Fatalf("row %d codes changed after append: (%v,%d) vs (%v,%d)", i, sCls[i], sBits[i], lCls[i], lBits[i])
		}
	}
	// A short snapshot taken now serves from the cached long vector.
	againCls, _ := short.Codes(0)
	if len(againCls) != 50 {
		t.Fatalf("short snapshot codes length = %d, want 50", len(againCls))
	}
	if &againCls[0] != &lCls[0] {
		t.Error("short snapshot did not reuse the cached long vector's prefix")
	}
	// Correctness against a from-scratch computation.
	freshCls, freshBits := long.computeBinnedCodes(1, 10)
	cacheCls, cacheBits := long.BinnedCodes(1, 10)
	for i := range freshCls {
		if freshCls[i] != cacheCls[i] || freshBits[i] != cacheBits[i] {
			t.Fatalf("row %d cached binned code diverges from fresh compute", i)
		}
	}
}
