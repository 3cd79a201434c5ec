package vstore

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// FuzzVstoreOpen checks recovery on arbitrary log bytes: Open either
// fails cleanly or returns a store whose intact records and Truncated
// account for the whole file, and whose index reads back exactly the
// latest value of every key in those records. It never panics. Seeded
// with a valid log, the same log with a torn tail and with one flipped
// byte; `go test` runs the seeds only, `go test -fuzz` explores.
func FuzzVstoreOpen(f *testing.F) {
	valid := validLog(f)
	f.Add(valid)
	f.Add(valid[:len(valid)-7])
	flipped := append([]byte(nil), valid...)
	flipped[len(fileMagic)+recHeaderLen+2] ^= 0x40
	f.Add(flipped)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "v.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(path, Config{SyncInterval: -1})
		if err != nil {
			return
		}
		defer s.Close()
		st := s.Stats()
		if len(data) == 0 {
			if st.Bytes != int64(len(fileMagic)) || st.Recovered != 0 {
				t.Fatalf("fresh log: %+v", st)
			}
			return
		}
		if st.Bytes+st.Truncated != int64(len(data)) {
			t.Fatalf("%d intact bytes + %d truncated != file size %d", st.Bytes, st.Truncated, len(data))
		}
		want, n, end := replay(data[:st.Bytes])
		if end != st.Bytes || int64(n) != st.Recovered {
			t.Fatalf("store kept %d bytes, %d records; the records in them end at %d, %d of them",
				st.Bytes, st.Recovered, end, n)
		}
		if s.Len() != len(want) {
			t.Fatalf("Len = %d, want %d", s.Len(), len(want))
		}
		for k, v := range want {
			got, ok, err := s.Get(k)
			if err != nil || !ok || string(got) != v {
				t.Fatalf("Get(%q) = %q, %v, %v; want %q", k, got, ok, err, v)
			}
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() != st.Bytes {
			t.Fatalf("file left at %d bytes, want %d", fi.Size(), st.Bytes)
		}
	})
}

// validLog returns the bytes of a small log written through Put,
// overwrites included.
func validLog(f *testing.F) []byte {
	path := filepath.Join(f.TempDir(), "seed.log")
	s, err := Open(path, Config{SyncInterval: -1})
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := s.Put(fmt.Sprintf("key%d", i%4), []byte(fmt.Sprintf(`{"robust":%v,"states":%d}`, i%2 == 0, i*17))); err != nil {
			f.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// replay walks the records of a log whose every record is intact, as a
// reference for Open: the latest value per key, the record count and the
// offset where the walk stopped.
func replay(log []byte) (latest map[string]string, n int, end int64) {
	latest = map[string]string{}
	off := len(fileMagic)
	for off+recHeaderLen <= len(log) {
		klen := int(binary.LittleEndian.Uint16(log[off:]))
		vlen := int(binary.LittleEndian.Uint32(log[off+2:]))
		body := off + recHeaderLen
		if body+klen+vlen > len(log) {
			break
		}
		latest[string(log[body:body+klen])] = string(log[body+klen : body+klen+vlen])
		n++
		off = body + klen + vlen
	}
	return latest, n, int64(off)
}
