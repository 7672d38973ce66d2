//go:build !race

package netio

import (
	"bufio"
	"encoding/binary"
	"net"
	"testing"

	"rsskv/internal/wire"
)

// TestCallAllocs pins what a call costs the client side of a connection:
// with the Request built beforehand, nothing but decoding the answer. The
// response channel comes from the connection's free list, the outbound
// queue alternates between two backing arrays, and the frame header rides
// in the writer's encode buffer — each of which used to be an object per
// call. The peer below allocates nothing per frame, so whatever remains is
// the connection's own; the floor it is held to is measured here too: the
// same answer decoded directly. Not under -race: the detector's
// instrumentation allocates.
func TestCallAllocs(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	answer := &wire.Response{Op: wire.OpGet, OK: true, Value: "0123456789abcdef0123456789abcdef", Version: 7}
	go func() {
		// An echo peer that allocates nothing in steady state: it reads the
		// request's ID straight out of the frame and re-encodes the one
		// answer into a reused buffer.
		fr := wire.NewFrameReader(bufio.NewReader(server), 0)
		var frame []byte
		resp := *answer
		for {
			payload, err := fr.ReadFrame()
			if err != nil {
				return
			}
			resp.ID, _ = binary.Uvarint(payload[1:]) // opcode byte, then the ID
			frame = wire.AppendResponse(wire.BeginFrame(frame), &resp)
			if wire.WriteFrame(server, frame) != nil {
				return
			}
		}
	}()

	payload := wire.AppendResponse(nil, answer)
	floor := testing.AllocsPerRun(200, func() {
		if _, err := wire.DecodeResponse(payload); err != nil {
			t.Fatal(err)
		}
	})

	cn := NewConn(client, 0)
	defer cn.Fail(ErrClosed)
	req := &wire.Request{Op: wire.OpGet, Key: "key00000001"}
	got := testing.AllocsPerRun(500, func() {
		resp, err := cn.Call(req)
		if err != nil || resp.Value != answer.Value {
			t.Fatalf("call: %v %+v", err, resp)
		}
	})
	if got > floor {
		t.Errorf("Conn.Call allocates %.1f objects per call, decoding its answer alone %.1f: the channel, the queue and the frame header must add nothing", got, floor)
	}
}
