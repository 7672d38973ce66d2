// Metrics payload codec. An OpMetrics response carries a whole metrics
// registry snapshot — counters, gauges, and sparse histogram bucket lists —
// which does not fit the flat Response fields, so it travels as an opaque
// byte string inside Value, encoded and decoded here with the same varint
// vocabulary (and the same count-bounding defenses) as the frames around
// it. The bucket indexing scheme belongs to internal/obs; this layer treats
// indexes as opaque small integers.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
)

// MetricVal is one named counter or gauge reading.
type MetricVal struct {
	Name  string
	Value int64
}

// MetricBucket is one occupied histogram bucket: obs's log-linear bucket
// index and its occupancy. Empty buckets are omitted, so a histogram's
// wire size is proportional to its occupied range, not its full layout.
type MetricBucket struct {
	Idx uint32
	N   uint64
}

// MetricHist is one named latency histogram: total count, value sum (for
// exact means), and the occupied buckets in ascending index order.
type MetricHist struct {
	Name    string
	Count   uint64
	Sum     int64
	Buckets []MetricBucket
}

// MetricsPayload is a full registry snapshot from one process. Source
// identifies the process personality and address ("kv@:7401") so merged
// cross-process views can still attribute readings.
type MetricsPayload struct {
	Source   string
	Counters []MetricVal
	Gauges   []MetricVal
	Hists    []MetricHist
}

// AppendMetricsPayload appends the encoding of p to buf.
func AppendMetricsPayload(buf []byte, p *MetricsPayload) []byte {
	buf = appendString(buf, p.Source)
	buf = appendMetricVals(buf, p.Counters)
	buf = appendMetricVals(buf, p.Gauges)
	buf = binary.AppendUvarint(buf, uint64(len(p.Hists)))
	for _, h := range p.Hists {
		buf = appendString(buf, h.Name)
		buf = binary.AppendUvarint(buf, h.Count)
		buf = binary.AppendVarint(buf, h.Sum)
		buf = binary.AppendUvarint(buf, uint64(len(h.Buckets)))
		for _, b := range h.Buckets {
			buf = binary.AppendUvarint(buf, uint64(b.Idx))
			buf = binary.AppendUvarint(buf, b.N)
		}
	}
	return buf
}

func appendMetricVals(buf []byte, vs []MetricVal) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(vs)))
	for _, v := range vs {
		buf = appendString(buf, v.Name)
		buf = binary.AppendVarint(buf, v.Value)
	}
	return buf
}

// DecodeMetricsPayload parses a payload produced by AppendMetricsPayload.
func DecodeMetricsPayload(payload []byte) (*MetricsPayload, error) {
	d := decoder{b: payload}
	p := &MetricsPayload{Source: d.owned()}
	p.Counters = d.metricVals()
	p.Gauges = d.metricVals()
	n := d.count()
	if d.err != nil {
		return nil, d.err
	}
	if n > 0 {
		p.Hists = make([]MetricHist, 0, n)
	}
	for i := 0; i < n; i++ {
		var h MetricHist
		h.Name = d.owned()
		h.Count = d.uvarint()
		h.Sum = d.varint()
		if nb := d.count(); nb > 0 {
			h.Buckets = make([]MetricBucket, nb)
			for j := range h.Buckets {
				idx := d.uvarint()
				if idx > math.MaxUint32 {
					d.fail(fmt.Errorf("%w: histogram bucket index %d", ErrBadMessage, idx))
					break
				}
				h.Buckets[j].Idx = uint32(idx)
				h.Buckets[j].N = d.uvarint()
			}
		}
		if d.err != nil {
			return nil, d.err
		}
		p.Hists = append(p.Hists, h)
	}
	if err := d.finish(); err != nil {
		return nil, err
	}
	return p, nil
}

func (d *decoder) metricVals() []MetricVal {
	n := d.count()
	if d.err != nil || n == 0 {
		return nil
	}
	vs := make([]MetricVal, 0, n)
	for i := 0; i < n; i++ {
		var v MetricVal
		v.Name = d.owned()
		v.Value = d.varint()
		if d.err != nil {
			return nil
		}
		vs = append(vs, v)
	}
	return vs
}
