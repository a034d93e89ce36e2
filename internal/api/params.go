package api

import (
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"time"
)

// Shared query-parameter parsing. Every tier used to parse ?limit=,
// ?wait=, ?since= with its own strconv calls; the error strings
// matched only by discipline. These helpers keep the messages (and
// the 400 envelope they end up in, code "bad_param") uniform, and add
// the clamps the hand-rolled versions never had.

const (
	// MaxLimit caps ?limit= — a page larger than this is served
	// clamped, not refused (the next cursor still pages correctly).
	MaxLimit = 100_000
	// MaxWait caps ?wait= long-poll holds so a client cannot park a
	// connection (and, through the router's relay budget, a router
	// connection) indefinitely.
	MaxWait = 5 * time.Minute
)

// ParamError is a rejected query parameter. Render it with the
// uniform 400 envelope and code "bad_param".
type ParamError struct {
	// Param is the offending parameter name.
	Param string
	msg   string
}

// Error implements error.
func (e *ParamError) Error() string { return e.msg }

// ParseLimit parses ?limit=: absent means 0 (no limit), anything not
// a positive integer is rejected, and values above MaxLimit are
// clamped.
func ParseLimit(q url.Values) (int, *ParamError) {
	raw := q.Get("limit")
	if raw == "" {
		return 0, nil
	}
	n, err := strconv.Atoi(raw)
	if err != nil || n < 1 {
		return 0, &ParamError{Param: "limit", msg: fmt.Sprintf("bad limit %q", raw)}
	}
	if n > MaxLimit {
		n = MaxLimit
	}
	return n, nil
}

// Cursor returns ?cursor= (opaque; the empty string starts at the
// top).
func Cursor(q url.Values) string { return q.Get("cursor") }

// PageEPCs applies ?limit=&cursor= pagination to a sorted EPC list:
// the page starts strictly after cursor (the last EPC of the previous
// page) and holds at most limit entries; next is the cursor for the
// following page ("" when exhausted). limit <= 0 means everything
// after the cursor. The serving tier and the router both page with it,
// so a client pages a single daemon and a cluster identically.
func PageEPCs(epcs []string, limit int, cursor string) (page []string, next string) {
	start := 0
	if cursor != "" {
		start = sort.SearchStrings(epcs, cursor)
		if start < len(epcs) && epcs[start] == cursor {
			start++
		}
	}
	end := len(epcs)
	if limit > 0 && start+limit < end {
		end = start + limit
	}
	page = epcs[start:end]
	if end < len(epcs) && len(page) > 0 {
		next = page[len(page)-1]
	}
	return page, next
}

// Prefix returns ?prefix= (the firehose EPC filter).
func Prefix(q url.Values) string { return q.Get("prefix") }

// ParseWait parses a ?wait= long-poll hold: it must be a positive
// Go duration; holds above MaxWait are clamped.
func ParseWait(raw string) (time.Duration, *ParamError) {
	d, err := time.ParseDuration(raw)
	if err != nil || d <= 0 {
		return 0, &ParamError{Param: "wait", msg: fmt.Sprintf("bad wait %q", raw)}
	}
	if d > MaxWait {
		d = MaxWait
	}
	return d, nil
}

// ParseSince parses ?since= (an epoch cursor): absent means 0.
func ParseSince(q url.Values) (uint64, *ParamError) {
	raw := q.Get("since")
	if raw == "" {
		return 0, nil
	}
	n, err := strconv.ParseUint(raw, 10, 64)
	if err != nil {
		return 0, &ParamError{Param: "since", msg: fmt.Sprintf("bad since %q", raw)}
	}
	return n, nil
}

// SSEResume resolves a stream client's resume epoch: the standard SSE
// Last-Event-ID reconnect header wins, else ?since=. ok reports
// whether the client asked to resume at all; an unparsable cursor is
// ignored (a reconnecting browser must get a live stream, not a 400).
func SSEResume(r *http.Request) (since uint64, ok bool) {
	raw := r.Header.Get("Last-Event-ID")
	if raw == "" {
		raw = r.URL.Query().Get("since")
	}
	if raw == "" {
		return 0, false
	}
	n, err := strconv.ParseUint(raw, 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}
