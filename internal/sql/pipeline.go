package sql

import "sync"

const (
	// pipelineDepth is how many batches wait between two stages of
	// ApplyScript: enough to absorb one slow statement, few enough that only
	// a fixed handful of batches' tokens and parses are ever held.
	pipelineDepth = 2
	// batchTokens is the fewest tokens a batch collects before it moves on,
	// unless the script ends or a block of rows does: a script of small
	// statements then pays one handoff per batch, not one per statement, and
	// a dump's COPY block travels alone, so the rows in flight are a fixed
	// few blocks' worth.
	batchTokens = 1024
)

// lexedBatch is what ApplyScript's lexer hands its parser: a run of whole
// statements' tokens, back to back, with the end of each in ends, then the
// error, if any, that ends the script after them. A block's rows are one
// token, which the parser scans into values.
type lexedBatch struct {
	toks []token
	ends []int
	err  error
}

// parsedBatch is what the parser hands apply: the parsed statements of one
// lexed batch, then the error, lexical or syntactic, that ends the script
// after them.
type parsedBatch struct {
	stmts []ScriptStmt
	err   error
}

// ApplyScript calls apply on every statement of src in source order and
// returns the first error: apply's, returned as is, or the script's first
// lexical or syntactic error. It is the loop
//
//	sc := NewScanner(src)
//	for sc.Next() {
//		if err := apply(sc.Stmt()); err != nil {
//			return err
//		}
//	}
//	return sc.Err()
//
// with the Scanner's two halves run ahead of apply on goroutines of their
// own, so lexing, parsing and applying overlap: a COPY block is cut out of
// the script by the first, scanned into values by the second and stored by
// apply. apply runs on the caller's
// goroutine and sees exactly the statements the loop would: a scan error
// travels in order behind the statements before it, and once apply fails
// nothing further reaches it. No goroutine outlives the call.
func ApplyScript(src string, apply func(ScriptStmt) error) error {
	lexed := make(chan lexedBatch, pipelineDepth)
	parsed := make(chan parsedBatch, pipelineDepth)
	// Parsed batches' buffers go back to the lexer; at most every batch in
	// flight is waiting there.
	free := make(chan lexedBatch, pipelineDepth+2)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer close(lexed)
		lex := newLexer(src)
		size := 0 // the largest batch's token capacity so far
		for eof := false; !eof; {
			var b lexedBatch
			select {
			case b = <-free:
			default: // every buffer is in flight: start one that size
				b.toks = make([]token, 0, size)
			}
			for full := false; !eof && b.err == nil && !full; {
				b.toks, eof, b.err = lex.statement(b.toks)
				if b.err == nil {
					b.ends = append(b.ends, len(b.toks))
				}
				n := len(b.toks)
				full = n >= batchTokens || n >= 2 && b.toks[n-2].kind == tokBlock
			}
			size = max(size, cap(b.toks))
			select {
			case lexed <- b:
			case <-stop:
				return
			}
			if b.err != nil {
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		defer close(parsed)
		var p parser
		for b := range lexed {
			out := parsedBatch{err: b.err}
			start := 0
			for _, end := range b.ends {
				p.toks = b.toks[start:end]
				start = end
				st, ok, err := p.scriptStmt(src)
				if err != nil {
					out.err = err
					break
				}
				if ok {
					out.stmts = append(out.stmts, st)
				}
			}
			select {
			case free <- lexedBatch{toks: b.toks[:0], ends: b.ends[:0]}:
			default:
			}
			select {
			case parsed <- out:
			case <-stop:
				return
			}
			if out.err != nil {
				return
			}
		}
	}()
	defer func() {
		close(stop)
		wg.Wait()
	}()
	for b := range parsed {
		for _, st := range b.stmts {
			if err := apply(st); err != nil {
				return err
			}
		}
		if b.err != nil {
			return b.err
		}
	}
	return nil
}
