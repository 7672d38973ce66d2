// Replication payload codecs. The replication opcodes carry structured
// payloads — log entry batches (OpReplEntry) and versioned key dumps
// (OpReplRead, OpReplSnapshot) — that do not fit the flat Request/Response
// fields, so they travel as an opaque byte string inside Value, encoded and
// decoded here with the same varint vocabulary (and the same count-bounding
// defenses) as the frames around them.
package wire

import "encoding/binary"

// ErrMsgSnapshotRequired is the Err value of an OpReplEntry response whose
// requested log position has been truncated away at the leader: the
// follower must catch up through OpReplSnapshot before pulling again.
const ErrMsgSnapshotRequired = "snapshot required"

// ReplEntry is one replicated log record on the wire — the transport form
// of internal/replication's Entry (timestamps as raw int64s so this package
// stays dependency-free).
type ReplEntry struct {
	// Seq is the entry's position in the shard log.
	Seq uint64
	// Kind is the replication.EntryKind (prepare, commit, abort,
	// heartbeat); opaque at this layer.
	Kind uint8
	// TxnID identifies the transaction (0 for heartbeats).
	TxnID uint64
	// TS is the prepare or commit timestamp.
	TS int64
	// Watermark is the leader's safe time at append.
	Watermark int64
	// Floor is the leader's read floor at append (0 except on a batch's
	// tail entry): followers trim their stores to it.
	Floor int64
	// Epoch is the view epoch the leader stamped on the entry at append.
	// Followers drop entries from an epoch below their fence floor, which
	// is what keeps a deposed leader's late appends out of the new view.
	Epoch uint64
	// Writes is a commit's write set on the shard (nil otherwise).
	Writes []KV
}

// ReplVal is one versioned key on the wire: a follower read result, or one
// version of a snapshot dump.
type ReplVal struct {
	Key   string
	Value string
	TS    int64
}

// AppendReplEntries appends the encoding of es to buf.
func AppendReplEntries(buf []byte, es []ReplEntry) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(es)))
	for _, e := range es {
		buf = binary.AppendUvarint(buf, e.Seq)
		buf = append(buf, e.Kind)
		buf = binary.AppendUvarint(buf, e.TxnID)
		buf = binary.AppendVarint(buf, e.TS)
		buf = binary.AppendVarint(buf, e.Watermark)
		buf = binary.AppendVarint(buf, e.Floor)
		buf = binary.AppendUvarint(buf, e.Epoch)
		buf = binary.AppendUvarint(buf, uint64(len(e.Writes)))
		for _, kv := range e.Writes {
			buf = appendString(buf, kv.Key)
			buf = appendString(buf, kv.Value)
		}
	}
	return buf
}

// DecodeReplEntries parses a payload produced by AppendReplEntries.
func DecodeReplEntries(payload []byte) ([]ReplEntry, error) {
	d := decoder{b: payload}
	n := d.count()
	if d.err != nil {
		return nil, d.err
	}
	es := make([]ReplEntry, 0, n)
	for i := 0; i < n; i++ {
		var e ReplEntry
		e.Seq = d.uvarint()
		e.Kind = d.byte()
		e.TxnID = d.uvarint()
		e.TS = d.varint()
		e.Watermark = d.varint()
		e.Floor = d.varint()
		e.Epoch = d.uvarint()
		if w := d.count(); w > 0 {
			e.Writes = make([]KV, w)
			for j := range e.Writes {
				e.Writes[j].Key = d.owned()
				e.Writes[j].Value = d.owned()
			}
		}
		if d.err != nil {
			return nil, d.err
		}
		es = append(es, e)
	}
	if err := d.finish(); err != nil {
		return nil, err
	}
	return es, nil
}

// AppendReplVals appends the encoding of vs to buf.
func AppendReplVals(buf []byte, vs []ReplVal) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(vs)))
	for _, v := range vs {
		buf = appendString(buf, v.Key)
		buf = appendString(buf, v.Value)
		buf = binary.AppendVarint(buf, v.TS)
	}
	return buf
}

// DecodeReplVals parses a payload produced by AppendReplVals.
func DecodeReplVals(payload []byte) ([]ReplVal, error) {
	d := decoder{b: payload}
	n := d.count()
	if d.err != nil {
		return nil, d.err
	}
	vs := make([]ReplVal, 0, n)
	for i := 0; i < n; i++ {
		var v ReplVal
		v.Key = d.owned()
		v.Value = d.owned()
		v.TS = d.varint()
		if d.err != nil {
			return nil, d.err
		}
		vs = append(vs, v)
	}
	if err := d.finish(); err != nil {
		return nil, err
	}
	return vs, nil
}
