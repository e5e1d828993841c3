package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"mosaic/internal/sql"
	"mosaic/internal/value"
)

// blockWorld has a sample with every kind and a real column named weight,
// so a block's last WEIGHT column is the tuple weight only by position.
const blockWorld = `CREATE GLOBAL POPULATION P (k TEXT, i INT, f FLOAT, b BOOL, weight FLOAT);
CREATE SAMPLE S AS (SELECT * FROM P);`

// blockAndInsert renders rows into S as a COPY block and as the INSERT it
// is defined to equal: with weights, the block's header ends in WEIGHT and
// each INSERT row in a WEIGHT clause.
func blockAndInsert(rows [][]value.Value, wts []value.Value) (block, insert string) {
	cols := []string{"k", "i", "f", "b", "weight"}
	if wts != nil {
		cols = append(cols, "WEIGHT")
	}
	block = string(sql.AppendBlock(nil, "S", cols, len(rows), func(i int) []value.Value {
		if wts == nil {
			return rows[i]
		}
		return append(slices.Clip(rows[i]), wts[i])
	}))
	ins := []byte("INSERT INTO S VALUES ")
	for i, r := range rows {
		if i > 0 {
			ins = append(ins, ", "...)
		}
		ins = append(ins, '(')
		for j, v := range r {
			if j > 0 {
				ins = append(ins, ", "...)
			}
			ins = value.AppendSQL(ins, v)
		}
		ins = append(ins, ')')
		if wts != nil {
			ins = value.AppendSQL(append(ins, " WEIGHT "...), wts[i])
		}
	}
	return block, string(ins)
}

// sameAsInsert runs block and insert into two engines that hold blockWorld
// and requires the same stored bits, kinds, dictionary order and weights,
// and an error from both or neither.
func sameAsInsert(t *testing.T, block, insert string) (blockErr error) {
	t.Helper()
	be, ie := NewEngine(Options{}), NewEngine(Options{})
	exec1(t, be, blockWorld)
	exec1(t, ie, blockWorld)
	_, blockErr = be.ExecScript(block)
	_, insErr := ie.ExecScript(insert)
	if (blockErr == nil) != (insErr == nil) {
		t.Fatalf("block error %v, INSERT error %v\nblock:\n%s\nINSERT:\n%s", blockErr, insErr, block, insert)
	}
	sameTables(t, "block vs INSERT", sampleTable(t, be, "S"), sampleTable(t, ie, "S"))
	return blockErr
}

// TestDumpBlocksAreInserts: a COPY block stores what the equivalent INSERT
// stores — every special value, coercion and weight, and on a row that does
// not coerce or weigh, the rows before it and an error — and a row that
// does not scan fails the block after the rows before it, with its line.
func TestDumpBlocksAreInserts(t *testing.T) {
	row := func(k, i, f, b, w value.Value) []value.Value { return []value.Value{k, i, f, b, w} }
	T, I, F, B, N := value.Text, value.Int, value.Float, value.Bool, value.Null()
	rows := [][]value.Value{
		row(T("tab\there"), I(math.MinInt64), F(math.NaN()), B(true), F(math.Copysign(0, -1))),
		row(T("new\nline"), I(math.MaxInt64), F(math.Inf(1)), B(false), F(math.Inf(-1))),
		row(T("''\n\\.\n"), F(2.9), I(3), N, I(-7)),
		row(T(""), N, F(5e-324), B(true), F(1e300)),
		row(T("tab\there"), I(0), F(-0.1), N, N),
	}
	wts := []value.Value{F(2.5), I(3), N, B(true), F(0)}
	for name, c := range map[string]struct {
		rows [][]value.Value
		wts  []value.Value
		fail bool
	}{
		"unit weights":        {rows, nil, false},
		"weights":             {rows, wts, false},
		"TEXT into INT":       {append(slices.Clip(rows[:2]), row(T("a"), T("x"), N, N, N), rows[3]), nil, true},
		"INT into TEXT":       {append(slices.Clip(rows[:3]), row(I(1), N, N, N, N)), wts[:4], true},
		"negative weight":     {rows, []value.Value{F(1), F(2), F(-1), F(3), F(4)}, true},
		"TEXT weight":         {rows[:2], []value.Value{F(1), T("w")}, true},
		"identical, weighted": {[][]value.Value{rows[0], rows[0], rows[0]}, []value.Value{F(1), F(2), F(3)}, false},
	} {
		t.Run(name, func(t *testing.T) {
			block, insert := blockAndInsert(c.rows, c.wts)
			if err := sameAsInsert(t, block, insert); (err != nil) != c.fail {
				t.Errorf("error %v, want one: %v", err, c.fail)
			}
		})
	}
	e := NewEngine(Options{})
	exec1(t, e, blockWorld)
	_, err := e.ExecScript("COPY S (k, i, f, b, weight) FROM STDIN;\n'a'\t1\t1\tTRUE\t1\n'b'\t2\t2\tTRUE\t2\n'c'\t3\tFLOAT 'x'\tTRUE\t3\n'd'\t4\t4\tTRUE\t4\n\\.")
	if want := `statement 1: core: COPY S row 3: sql: line 4: invalid FLOAT literal 'x'`; fmt.Sprint(err) != want {
		t.Errorf("bad field: err = %v, want %s", err, want)
	}
	if n := sampleTable(t, e, "S").Len(); n != 2 {
		t.Errorf("bad field at row 3 kept %d rows, want 2", n)
	}
}

// FuzzCopyBlock: for arbitrary rows of any kinds in any column, with or
// without weights of any kind, a COPY block leaves the state its INSERT
// leaves, bit for bit, and fails exactly when it fails.
func FuzzCopyBlock(f *testing.F) {
	f.Add([]byte{3, 1, 0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte("\x05\x00\x03\x05'\t\n\\.\x02\x02\x01\x04\x06\x07\x07"))
	f.Add([]byte{9, 0, 2, 0xff, 2, 3, 5, 1, 6, 0, 0, 0, 0, 0, 0, 0xf0, 0x7f, 3, 4, 'x', '\n', '\\', '.', 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		word := func() uint64 {
			var w [8]byte
			for i := range w {
				w[i] = next()
			}
			return binary.LittleEndian.Uint64(w[:])
		}
		specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 0.5, -2.5, 3, 1e300, 5e-324}
		val := func() value.Value {
			switch b := next(); b % 8 {
			case 0:
				return value.Null()
			case 1:
				return value.Int(int64(int8(next())))
			case 2:
				return value.Int(int64(word()))
			case 3:
				return value.Float(specials[int(next())%len(specials)])
			case 4:
				return value.Float(math.Float64frombits(word()))
			case 5:
				const alphabet = "a'\t\n\\.;-"
				s := make([]byte, next()%6)
				for i := range s {
					s[i] = alphabet[int(next())%len(alphabet)]
				}
				return value.Text(string(s))
			case 6:
				return value.Bool(b&8 != 0)
			default:
				return value.Text(fmt.Sprintf("t%d", next()%3))
			}
		}
		n := 1 + int(next())%24
		weighted := next()%2 == 1
		rows := make([][]value.Value, n)
		var wts []value.Value
		for i := range rows {
			rows[i] = []value.Value{val(), val(), val(), val(), val()}
			if weighted {
				w := value.Float(float64(next()) / 4)
				if next()%8 == 0 {
					w = val()
				}
				wts = append(wts, w)
			}
		}
		block, insert := blockAndInsert(rows, wts)
		if strings.Count(block, "\n") < n+2 {
			t.Fatalf("block of %d rows:\n%s", n, block)
		}
		sameAsInsert(t, block, insert)
	})
}
