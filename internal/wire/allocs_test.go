//go:build !race

package wire

import (
	"fmt"
	"testing"
)

// TestDecodeAllocs pins what decoding a frame costs in heap objects: one
// box, one arena for every string that is only a view, and one copy per
// string that is decoded in order to be retained (a request's write
// values). Before the arena a commit with R reads and W writes cost
// 1 + R + 2W and a ten-key read 2 + 10 on the server plus 3 + 20 on the
// client. Not under -race: the detector's instrumentation allocates.
func TestDecodeAllocs(t *testing.T) {
	commit := &Request{ID: 7, Op: OpCommit, TxnID: 42}
	for i := 0; i < 3; i++ {
		commit.Keys = append(commit.Keys, fmt.Sprintf("key%08d", i))
	}
	for i := 0; i < 5; i++ {
		commit.KVs = append(commit.KVs, KV{Key: fmt.Sprintf("key%08d", i), Value: fmt.Sprintf("%032d", i)})
	}
	read := &Request{ID: 8, Op: OpROTxn, TMin: 12345}
	answer := &Response{ID: 8, Op: OpROTxn, OK: true, Version: 12345}
	for i := 0; i < 10; i++ {
		k := fmt.Sprintf("key%08d", i)
		read.Keys = append(read.Keys, k)
		answer.KVs = append(answer.KVs, KV{Key: k, Value: fmt.Sprintf("%032d", i)})
		answer.Vers = append(answer.Vers, int64(1000+i))
	}
	begin := &Request{ID: 9, Op: OpBeginTxn}

	cases := []struct {
		name    string
		payload []byte
		decode  func([]byte) error
		max     float64
	}{
		{"commit 3 reads 5 writes", AppendRequest(nil, commit), decodeReq, 7}, // box + arena + 5 values
		{"ro-txn 10 keys", AppendRequest(nil, read), decodeReq, 2},            // box + arena
		{"response 10 kvs", AppendResponse(nil, answer), decodeResp, 2},       // box + arena
		{"begin-txn", AppendRequest(nil, begin), decodeReq, 1},                // box; no string, no arena
	}
	for _, c := range cases {
		got := testing.AllocsPerRun(200, func() {
			if err := c.decode(c.payload); err != nil {
				t.Fatal(err)
			}
		})
		if got > c.max {
			t.Errorf("%s: %.0f allocations per decode, want at most %.0f", c.name, got, c.max)
		}
	}
}

func decodeReq(p []byte) error  { _, err := DecodeRequest(p); return err }
func decodeResp(p []byte) error { _, err := DecodeResponse(p); return err }
