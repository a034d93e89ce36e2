package api

import (
	"reflect"
	"testing"
)

func TestPageEPCs(t *testing.T) {
	epcs := []string{"a", "b", "c", "d", "e"}
	cases := []struct {
		name     string
		limit    int
		cursor   string
		want     []string
		wantNext string
	}{
		{"everything", 0, "", epcs, ""},
		{"first page", 2, "", []string{"a", "b"}, "b"},
		{"middle page", 2, "b", []string{"c", "d"}, "d"},
		{"last page short", 2, "d", []string{"e"}, ""},
		{"cursor past end", 2, "e", nil, ""},
		{"cursor between keys", 2, "bb", []string{"c", "d"}, "d"},
		{"limit past end", 10, "c", []string{"d", "e"}, ""},
		{"empty list", 3, "", nil, ""},
	}
	for _, tc := range cases {
		src := epcs
		if tc.name == "empty list" {
			src = nil
		}
		page, next := PageEPCs(src, tc.limit, tc.cursor)
		if len(page) == 0 {
			page = nil
		}
		if !reflect.DeepEqual(page, tc.want) || next != tc.wantNext {
			t.Fatalf("%s: PageEPCs(limit=%d, cursor=%q) = %v, %q; want %v, %q",
				tc.name, tc.limit, tc.cursor, page, next, tc.want, tc.wantNext)
		}
	}
}
