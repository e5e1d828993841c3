package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mosaic"
	"mosaic/internal/coord"
	"mosaic/internal/server"
	"mosaic/internal/wire"
)

// TestOversizedBodyAnswers413: a body one byte over wire.MaxBodyBytes is a
// clear 413 naming the limit, not a confusing 400 decode error — from a
// shard and from the coordinator alike, in the same words, since both
// decode through the same kernel.
func TestOversizedBodyAnswers413(t *testing.T) {
	srv, err := server.New(server.Config{DB: mosaic.Open(nil)})
	if err != nil {
		t.Fatal(err)
	}
	shard := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		shard.Close()
		srv.Close()
	})
	c, err := coord.New(coord.Config{Shards: []string{shard.URL}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := c.Sync(t.Context()); err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(c.Handler())
	t.Cleanup(front.Close)

	const head, tail = `{"query": "`, `"}`
	big := []byte(head + strings.Repeat("x", wire.MaxBodyBytes+1-len(head)-len(tail)) + tail)
	if len(big) != wire.MaxBodyBytes+1 {
		t.Fatalf("body is %d bytes, want %d", len(big), wire.MaxBodyBytes+1)
	}
	var msgs []string
	for _, base := range []string{shard.URL, front.URL} {
		resp, err := http.Post(base+"/v1/query", "application/json", bytes.NewReader(big))
		if err != nil {
			t.Fatal(err)
		}
		var werr wire.ErrorResponse
		err = json.NewDecoder(resp.Body).Decode(&werr)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: oversized body answered %d, want 413", base, resp.StatusCode)
		}
		if err != nil {
			t.Fatal(err)
		}
		msgs = append(msgs, werr.Error)
	}
	if want := fmt.Sprintf("%d-byte limit", wire.MaxBodyBytes); !strings.Contains(msgs[0], want) {
		t.Errorf("413 message %q does not name the limit", msgs[0])
	}
	if msgs[0] != msgs[1] {
		t.Errorf("coordinator's 413 %q differs from the shard's %q", msgs[1], msgs[0])
	}
}

// TestPanickingCallAnswers500: a Call that panics fails its own request
// with a 500 naming the endpoint; the process keeps serving, the next
// request on the same kernel succeeds, and nothing stays in flight.
func TestPanickingCallAnswers500(t *testing.T) {
	k := server.NewKernel(server.QoSConfig{}, 0)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		k.Serve(w, r, http.MethodGet, nil, func() (server.Class, server.Call, error) {
			return server.Interactive, func(context.Context) (any, error) {
				if r.URL.Query().Has("panic") {
					panic("boom")
				}
				return "ok", nil
			}, nil
		})
	}))
	t.Cleanup(srv.Close)
	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(b)
	}
	code, body := get("/v1/query?panic=1")
	if code != http.StatusInternalServerError || !strings.Contains(body, "GET /v1/query: internal error: panic: boom") {
		t.Fatalf("panicking call answered %d %s; want a 500 naming the endpoint and the panic", code, body)
	}
	if code, body := get("/v1/query"); code != http.StatusOK {
		t.Fatalf("request after the panic answered %d %s; want 200", code, body)
	}
	// The call goroutine releases its slot after the reply is written.
	deadline := time.Now().Add(5 * time.Second)
	for k.AdmissionStats().Inflight != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("inflight is %d after both requests answered; want 0", k.AdmissionStats().Inflight)
		}
		time.Sleep(time.Millisecond)
	}
}
