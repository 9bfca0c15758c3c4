package main

import "testing"

func TestStopLinksOnlyUnambiguousParents(t *testing.T) {
	type iv [2]int64 // a span's [start, end], unique in this test
	tr := newTracer()
	tr.on.Store(true)
	for _, s := range []span{
		{kind: spanServer, op: 'g', start: 0, end: 100},   // get A
		{kind: spanServer, op: 's', start: 10, end: 90},   // set B, overlaps A
		{kind: spanCoreRead, start: 20, end: 30},          // inside A and B; only A is a get
		{kind: spanCoreWrite, start: 40, end: 50},         // only B is a set
		{kind: spanMemnode, start: 42, end: 48},           // inside the write only
		{kind: spanCoreRead, start: 95, end: 120},         // outlives A
		{kind: spanServer, op: 'g', start: 200, end: 300}, // get C
		{kind: spanServer, op: 'g', start: 210, end: 290}, // get D, overlaps C
		{kind: spanCoreSync, start: 215, end: 260},        // background sync
		{kind: spanCoreRead, start: 220, end: 230},        // inside C and D: ambiguous
		{kind: spanMemnode, start: 222, end: 228},         // inside the read and the sync: ambiguous
		{kind: spanMemnode, start: 240, end: 250},         // inside the sync only
		{kind: spanController, start: 400, end: 410},      // inside nothing
	} {
		tr.add(s)
	}
	spans := tr.stop()
	index := map[iv]int32{}
	for i, s := range spans {
		index[iv{s.start, s.end}] = int32(i + 1)
	}
	want := map[iv]iv{ // child -> parent; absent = unlinked
		{20, 30}:   {0, 100},
		{40, 50}:   {10, 90},
		{42, 48}:   {40, 50},
		{240, 250}: {215, 260},
	}
	for _, s := range spans {
		var w int32
		if p, ok := want[iv{s.start, s.end}]; ok {
			w = index[p]
		}
		if s.parent != w {
			t.Errorf("%s [%d,%d]: parent %d, want %d", spanNames[s.kind], s.start, s.end, s.parent, w)
		}
	}
}
