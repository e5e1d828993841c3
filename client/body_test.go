package client

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"mosaic/internal/wire"
)

// TestSnapshotShortBodyIsAnError: a snapshot answer that declares N bytes
// and ends after N/2 is a failed fetch, not a shorter script.
func TestSnapshotShortBodyIsAnError(t *testing.T) {
	script := strings.Repeat("INSERT INTO T VALUES (1);\n", 400)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", strconv.Itoa(len(script)))
		w.Header().Set(wire.GenerationHeader, "7")
		w.Header().Set(wire.SnapshotFormatHeader, wire.SnapshotFormat)
		w.WriteHeader(http.StatusOK)
		w.Write([]byte(script[:len(script)/2])) // the server closes the connection short
	}))
	defer ts.Close()
	snap, err := New(ts.URL).SnapshotContext(context.Background())
	if err == nil {
		t.Fatalf("SnapshotContext read a %d-byte script of a %d-byte body, and no error", len(snap.Script), len(script))
	}
	if !strings.Contains(err.Error(), "of "+strconv.Itoa(len(script))+" bytes") {
		t.Errorf("err = %v, want it to name the declared length", err)
	}
}

// TestResponseOverTheCapIsNamed: a JSON answer longer than the client's cap
// is an error naming the cap, never a parse of its first cap bytes.
func TestResponseOverTheCapIsNamed(t *testing.T) {
	defer func(old int64) { maxResponseBytes = old }(maxResponseBytes)
	maxResponseBytes = 1024
	body := `{"status": "ok", "uptime_secs": 1, "pad": "` + strings.Repeat("x", 1024) + `"}`
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(body))
	}))
	defer ts.Close()
	err := New(ts.URL).Health()
	if err == nil || !strings.Contains(err.Error(), "1024-byte cap") {
		t.Fatalf("Health over a %d-byte body: err = %v, want the 1024-byte cap named", len(body), err)
	}
	maxResponseBytes = int64(len(body))
	if err := New(ts.URL).Health(); err != nil {
		t.Errorf("Health over a body exactly at the cap: %v", err)
	}
}
