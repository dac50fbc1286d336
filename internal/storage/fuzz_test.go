package storage

import "testing"

// FuzzParseRecord feeds arbitrary bytes to the segment record decoder.
// It must never panic, and a record it accepts must be self-consistent:
// a known type, a length within the input that the key, payload and
// checksum fill exactly, the same fields when parsed alone, and every
// shorter prefix rejected — the torn-tail rule readLog relies on to tell
// a record cut short by a crash from a complete one.
func FuzzParseRecord(f *testing.F) {
	blob, _ := encodeRecord(recBlob, "results/ab12", []byte(`{"fingerprint":"ab12"}`))
	tomb, _ := encodeRecord(recTombstone, "traces/cd34", nil)
	empty, _ := encodeRecord(recBlob, "", []byte("x"))
	journal := AppendRecord(nil, []byte(`{"seq":3,"op":"lease","id":"c1","state":"running","owner":"local-1","token":"57de625cd6c96543","lease_expires":1792356393153501441,"at":1792356333153237958}`))
	f.Add(blob)
	f.Add(tomb)
	f.Add(empty)
	f.Add(blob[:len(blob)-3])
	f.Add(journal)

	f.Fuzz(func(t *testing.T, b []byte) {
		typ, key, dataOff, dataLen, recLen, ok := parseRecord(b)
		if !ok {
			return
		}
		if typ != recBlob && typ != recTombstone && typ != recJournal {
			t.Fatalf("accepted record type %q", typ)
		}
		if recLen <= 0 || recLen > int64(len(b)) {
			t.Fatalf("record length %d outside the %d-byte input", recLen, len(b))
		}
		if dataOff+dataLen+4 != recLen {
			t.Fatalf("payload at %d+%d plus checksum does not end the %d-byte record", dataOff, dataLen, recLen)
		}
		typ2, key2, dataOff2, dataLen2, recLen2, ok2 := parseRecord(b[:recLen])
		if !ok2 || typ2 != typ || key2 != key || dataOff2 != dataOff || dataLen2 != dataLen || recLen2 != recLen {
			t.Fatalf("record alone parses differently: %v %q %q %d %d %d", ok2, typ2, key2, dataOff2, dataLen2, recLen2)
		}
		for n := int64(0); n < recLen; n++ {
			if _, _, _, _, _, ok := parseRecord(b[:n]); ok {
				t.Fatalf("torn %d-byte prefix of a %d-byte record accepted", n, recLen)
			}
		}
	})
}
