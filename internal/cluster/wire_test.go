package cluster_test

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/bitset"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sim"
)

func TestFrameRoundTrip(t *testing.T) {
	cases := []struct {
		kind byte
		body []byte
	}{
		{cluster.KindGossip, []byte("payload")},
		{cluster.KindJoin, []byte(`{"id":3}`)},
		{cluster.KindLeaveOK, nil},
	}
	var buf bytes.Buffer
	for _, c := range cases {
		if err := cluster.WriteFrame(&buf, c.kind, c.body); err != nil {
			t.Fatalf("write kind %#x: %v", c.kind, err)
		}
	}
	for _, c := range cases {
		kind, body, err := cluster.ReadFrame(&buf)
		if err != nil {
			t.Fatalf("read kind %#x: %v", c.kind, err)
		}
		if kind != c.kind || !bytes.Equal(body, c.body) {
			t.Errorf("frame (%#x, %q) read back as (%#x, %q)", c.kind, c.body, kind, body)
		}
	}
}

func TestFrameRejectsCorruption(t *testing.T) {
	frame := func() []byte {
		var buf bytes.Buffer
		if err := cluster.WriteFrame(&buf, cluster.KindHeartbeat, []byte("x")); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	badMagic := frame()
	badMagic[4] ^= 0xff
	if _, _, err := cluster.ReadFrame(bytes.NewReader(badMagic)); err == nil {
		t.Error("bad magic accepted")
	}

	badVersion := frame()
	badVersion[8] = cluster.WireVersion + 1
	if _, _, err := cluster.ReadFrame(bytes.NewReader(badVersion)); err == nil {
		t.Error("future envelope version accepted")
	}

	oversize := frame()
	binary.BigEndian.PutUint32(oversize[0:4], cluster.MaxFrame+1)
	if _, _, err := cluster.ReadFrame(bytes.NewReader(oversize)); err == nil {
		t.Error("oversized frame length accepted")
	}

	undersize := frame()
	binary.BigEndian.PutUint32(undersize[0:4], 2) // shorter than the envelope header
	if _, _, err := cluster.ReadFrame(bytes.NewReader(undersize)); err == nil {
		t.Error("undersized frame length accepted")
	}

	truncated := frame()
	if _, _, err := cluster.ReadFrame(bytes.NewReader(truncated[:len(truncated)-1])); err == nil {
		t.Error("truncated frame accepted")
	}

	if err := cluster.WriteFrame(&bytes.Buffer{}, cluster.KindGossip, make([]byte, cluster.MaxFrame)); err == nil {
		t.Error("MaxFrame-exceeding body written")
	}
}

func TestGossipEnvelopeRoundTrip(t *testing.T) {
	want := sim.Message{
		From:    3,
		To:      11,
		SentAt:  1_234_567_890,
		Payload: core.AvgPayload{S: 2.5, W: 0.5},
	}
	body, err := cluster.AppendGossip(nil, want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cluster.DecodeGossip(body)
	if err != nil {
		t.Fatal(err)
	}
	if got.From != want.From || got.To != want.To || got.SentAt != want.SentAt {
		t.Errorf("header round-trip: got %+v, want %+v", got, want)
	}
	if !core.WirePayloadEquals(got.Payload, want.Payload) {
		t.Errorf("payload round-trip: got %#v, want %#v", got.Payload, want.Payload)
	}

	if _, err := cluster.DecodeGossip(body[:10]); err == nil {
		t.Error("truncated gossip body accepted")
	}
	if _, err := cluster.AppendGossip(nil, sim.Message{Payload: struct{}{}}); err == nil {
		t.Error("unencodable payload accepted")
	}
}

// FuzzReadFrame feeds arbitrary bytes to the frame reader and, for gossip
// frames, to the envelope decoder — the two parsers in front of every
// socket. Neither may panic, and both must be canonical: a frame that
// reads re-writes to exactly the bytes consumed, and a gossip body that
// decodes re-encodes to exactly the same body.
func FuzzReadFrame(f *testing.F) {
	frame := func(kind byte, body []byte) []byte {
		var buf bytes.Buffer
		if err := cluster.WriteFrame(&buf, kind, body); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	set, informed := bitset.New(5), bitset.NewMatrix(5)
	set.Add(1)
	informed.Set(4, 2)
	for _, pl := range []sim.Payload{core.NewWireGossipPayload(&core.Rumors{Set: set}, informed, true), core.AvgPayload{S: 2.5, W: 0.5}} {
		body, err := cluster.AppendGossip(nil, sim.Message{From: 3, To: 11, SentAt: 1_234_567_890, Payload: pl})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame(cluster.KindGossip, body))
	}
	f.Add(frame(cluster.KindJoin, []byte(`{"id":3}`)))
	f.Add(frame(cluster.KindLeaveOK, nil))
	f.Add(frame(cluster.KindGossip, []byte("short")))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		kind, body, err := cluster.ReadFrame(r)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := cluster.WriteFrame(&buf, kind, body); err != nil {
			t.Fatalf("frame (%#x, %d bytes) read but does not re-write: %v", kind, len(body), err)
		}
		if consumed := data[:len(data)-r.Len()]; !bytes.Equal(buf.Bytes(), consumed) {
			t.Fatalf("frame re-writes differently:\n in  %x\n out %x", consumed, buf.Bytes())
		}
		if kind != cluster.KindGossip {
			return
		}
		m, err := cluster.DecodeGossip(body)
		if err != nil {
			return
		}
		enc, err := cluster.AppendGossip(nil, m)
		if err != nil {
			t.Fatalf("decoded %+v does not re-encode: %v", m, err)
		}
		if !bytes.Equal(enc, body) {
			t.Fatalf("gossip body re-encodes differently:\n in  %x\n out %x", body, enc)
		}
	})
}
