// Command mosaic is an interactive shell and script runner for the Mosaic
// open-world database.
//
// Usage:
//
//	mosaic [-seed N] [-open-samples N] [-workers N] [-remote URL]
//	       [-timeout D] [file.sql ...]
//
// With file arguments, each script executes in order against one shared
// database and SELECT results print to stdout. Without arguments, mosaic
// reads statements from stdin (terminated by ';'), REPL-style; a COPY …
// FROM STDIN statement runs on to the line \. that ends its rows, so
// `mosaic < dump.sql` replays a dump.
//
// With -remote http://host:port the shell drives a mosaic-serve instance
// instead of an in-process engine: statements travel over the HTTP API and
// results come back byte-for-byte identical to local execution (the engine
// flags are then ignored — the server's options apply).
//
// -timeout bounds each submitted script with a context deadline: an
// overrunning statement (e.g. a cold OPEN query) is cancelled — locally the
// engine aborts at its next checkpoint, remotely the server cancels the
// statement — and the shell stays usable.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"mosaic"
	"mosaic/client"
)

// runner abstracts the two backends of the shell: an in-process mosaic.DB or
// a remote mosaic-serve driven through mosaic/client. Both honor the
// script context end to end.
type runner interface {
	RunContext(ctx context.Context, script string) ([]*mosaic.Result, error)
}

func main() {
	seed := flag.Int64("seed", 1, "random seed driving IPF/M-SWG determinism")
	openSamples := flag.Int("open-samples", 10, "generated samples averaged per OPEN query")
	epochs := flag.Int("swg-epochs", 20, "M-SWG training epochs for OPEN queries")
	workers := flag.Int("workers", 0, "intra-query workers (morsel-parallel kernels, OPEN replicate fan-out, M-SWG training); 0 = all cores (GOMAXPROCS), answers are identical for any value")
	remote := flag.String("remote", "", "drive a mosaic-serve instance at this base URL instead of an in-process engine")
	timeout := flag.Duration("timeout", 0, "per-script deadline; overrunning statements are cancelled (0 = no limit)")
	flag.Parse()
	scriptTimeout = *timeout

	var db runner
	if *remote != "" {
		c := client.New(*remote)
		if err := c.Health(); err != nil {
			fatalf("mosaic: cannot reach %s: %v", *remote, err)
		}
		db = c
	} else {
		db = mosaic.Open(&mosaic.Options{
			Seed:        *seed,
			OpenSamples: *openSamples,
			Workers:     *workers,
			SWG:         mosaic.SWGConfig{Epochs: *epochs},
		})
	}

	if flag.NArg() > 0 {
		for _, path := range flag.Args() {
			src, err := os.ReadFile(path)
			if err != nil {
				fatalf("mosaic: %v", err)
			}
			if err := runScript(db, string(src)); err != nil {
				fatalf("mosaic: %s: %v", path, err)
			}
		}
		return
	}
	repl(db, os.Stdin)
}

// scriptTimeout is the -timeout flag: a per-script context deadline.
var scriptTimeout time.Duration

func runScript(db runner, src string) error {
	ctx := context.Background()
	if scriptTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, scriptTimeout)
		defer cancel()
	}
	results, err := db.RunContext(ctx, src)
	for _, res := range results {
		if res != nil {
			fmt.Println(res.String())
			fmt.Println()
		}
	}
	return err
}

// repl runs what it reads from in, a statement at a time: it submits at
// each line with a ';', except that a COPY … FROM STDIN header's rows run
// on to a line \. outside quotes.
func repl(db runner, in io.Reader) {
	fmt.Println("Mosaic — open world query processing. Statements end with ';'. Ctrl-D exits.")
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	prompt := "mosaic> "
	fmt.Print(prompt)
	rows, quoted := false, false // inside a block's rows; inside a quote there
	for sc.Scan() {
		line := sc.Text()
		buf.WriteString(line)
		buf.WriteByte('\n')
		complete := strings.Contains(line, ";")
		switch {
		case rows:
			rows = quoted || line != `\.`
			if strings.Count(line, "'")%2 == 1 {
				quoted = !quoted
			}
			complete = !rows
		case strings.HasSuffix(strings.ToUpper(strings.TrimSpace(line)), "FROM STDIN;"):
			rows, quoted, complete = true, false, false
		}
		if complete {
			if err := runScript(db, buf.String()); err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
			}
			buf.Reset()
			fmt.Print(prompt)
		} else {
			fmt.Print("   ...> ")
		}
	}
	if buf.Len() > 0 {
		if err := runScript(db, buf.String()); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
		}
	}
	fmt.Println()
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
