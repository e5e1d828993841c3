package mosaic_test

import (
	"strings"
	"testing"

	"mosaic"
)

// orderWorld holds the values whose identity and order every operator must
// agree on: t has NaN twice, -0 and 0, and a NULL; u has ±Inf, a NaN and
// INTs beyond ±2^53 that one float64 cannot tell apart; P is a population
// whose STRATIFIED sample S holds a -0 row and lists the stratum 0.
const orderWorld = `
	CREATE TABLE t (x FLOAT, y INT);
	INSERT INTO t VALUES (3, 1), (FLOAT 'NaN', 2), (1, 3), (NULL, 4), (FLOAT '-0', 5), (0, 6), (FLOAT 'NaN', 7), (2, 8);
	CREATE TABLE u (i INT, f FLOAT);
	INSERT INTO u VALUES (9007199254740992, FLOAT '+Inf'), (9007199254740993, FLOAT '-Inf'),
		(9007199254740993, FLOAT 'NaN'), (-9007199254740993, 1);
	CREATE GLOBAL POPULATION P (f FLOAT);
	CREATE SAMPLE S AS (SELECT * FROM P USING MECHANISM STRATIFIED ON f PERCENT 50 WITH PROBABILITIES (0 0.5, 1 0.25));
	INSERT INTO S VALUES (FLOAT '-0'), (0), (1);
`

// orderCases are the answers under PostgreSQL's rule: NaN equals NaN and
// sorts above every other number, -0 equals 0 and groups with it, and two
// INTs are one value only when their int64s are. Rows are space-separated,
// values comma-separated, as value.String renders them.
var orderCases = []struct{ query, want string }{
	{`SELECT x, y FROM t ORDER BY x, y`, "NULL,4 -0,5 0,6 1,3 2,8 3,1 NaN,2 NaN,7"},
	{`SELECT x, y FROM t ORDER BY x DESC, y LIMIT 3`, "NaN,2 NaN,7 3,1"},
	{`SELECT x FROM t ORDER BY x LIMIT 3`, "NULL -0 0"},
	{`SELECT y FROM t WHERE x = 5`, ""},
	{`SELECT y FROM t WHERE x = FLOAT 'NaN'`, "2 7"},
	{`SELECT y FROM t WHERE x = 0`, "5 6"},
	{`SELECT y FROM t WHERE x <> 1`, "1 2 5 6 7 8"},
	{`SELECT y FROM t WHERE x < 1`, "5 6"},
	{`SELECT y FROM t WHERE x > 2`, "1 2 7"},
	{`SELECT y FROM t WHERE x * 1 > 2`, "1 2 7"},
	{`SELECT y FROM t WHERE x IN (FLOAT 'NaN')`, "2 7"},
	{`SELECT y FROM t WHERE x IN (0, 3)`, "1 5 6"},
	{`SELECT y FROM t WHERE x NOT IN (FLOAT 'NaN', 1)`, "1 5 6 8"},
	{`SELECT y FROM t WHERE x BETWEEN 0 AND 1`, "3 5 6"},
	{`SELECT y FROM t WHERE x BETWEEN 2 AND FLOAT 'NaN'`, "1 2 7 8"},
	{`SELECT MIN(x), MAX(x) FROM t`, "-0,NaN"},
	{`SELECT MAX(x) FROM t WHERE x < FLOAT 'NaN'`, "3"},
	{`SELECT DISTINCT x FROM t`, "3 NaN 1 NULL -0 2"},
	{`SELECT x, COUNT(*) FROM t GROUP BY x`, "3,1 NaN,2 1,1 NULL,1 -0,2 2,1"},
	{`SELECT x, COUNT(*) FROM t GROUP BY x ORDER BY x`, "NULL,1 -0,2 1,1 2,1 3,1 NaN,2"},
	{`SELECT x, COUNT(*) FROM t GROUP BY x ORDER BY x DESC LIMIT 3`, "NaN,2 3,1 2,1"},
	{`SELECT f FROM u ORDER BY f`, "-Inf 1 +Inf NaN"},
	{`SELECT f FROM u WHERE f > FLOAT '+Inf'`, "NaN"},
	{`SELECT MIN(f), MAX(f) FROM u`, "-Inf,NaN"},
	{`SELECT i FROM u WHERE i = 9007199254740993`, "9007199254740993 9007199254740993"},
	{`SELECT i FROM u ORDER BY i DESC LIMIT 3`, "9007199254740993 9007199254740993 9007199254740992"},
	{`SELECT DISTINCT i FROM u`, "9007199254740992 9007199254740993 -9007199254740993"},
	{`SELECT i, COUNT(*) FROM u GROUP BY i`, "9007199254740992,1 9007199254740993,2 -9007199254740993,1"},
	{`SELECT SEMI-OPEN COUNT(*) FROM P`, "8"},
}

// TestOneValueOrder runs orderCases under the columnar pipeline and the row
// interpreter, at Workers 1 and 4 and Shards 1 and 2: every operator and
// every executor gives the one identity and the one order.
func TestOneValueOrder(t *testing.T) {
	for _, rowExec := range []bool{false, true} {
		for _, workers := range []int{1, 4} {
			for _, shards := range []int{1, 2} {
				db := mosaic.Open(&mosaic.Options{Seed: 1, RowExec: rowExec, Workers: workers, Shards: shards})
				if err := db.Exec(orderWorld); err != nil {
					t.Fatal(err)
				}
				for _, c := range orderCases {
					res, err := db.Query(c.query)
					if err != nil {
						t.Errorf("RowExec=%v Workers=%d Shards=%d: %s: %v", rowExec, workers, shards, c.query, err)
						continue
					}
					rows := make([]string, len(res.Rows))
					for i, row := range res.Rows {
						vals := make([]string, len(row))
						for j, v := range row {
							vals[j] = v.String()
						}
						rows[i] = strings.Join(vals, ",")
					}
					if got := strings.Join(rows, " "); got != c.want {
						t.Errorf("RowExec=%v Workers=%d Shards=%d: %s\n got %s\nwant %s", rowExec, workers, shards, c.query, got, c.want)
					}
				}
			}
		}
	}
}
