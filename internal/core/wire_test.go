package core

import (
	"bytes"
	"testing"

	"repro/internal/bitset"
)

// wirePayloads enumerates one representative of every encodable shape.
func wirePayloads() map[string]interface{} {
	set := bitset.New(12)
	set.Add(0)
	set.Add(3)
	set.Add(11)
	vals := make([]uint8, 12)
	vals[0], vals[3], vals[11] = 1, 0, 1
	m := bitset.NewMatrix(12)
	m.Set(0, 3)
	m.Set(11, 11)
	m.Set(7, 2)
	full := bitset.New(12)
	for i := 0; i < 12; i++ {
		full.Add(i)
	}
	return map[string]interface{}{
		"gossip-rumors-vals-informed": NewWireGossipPayload(&Rumors{Set: set, Vals: vals}, m, false),
		"gossip-rumors-only":          NewWireGossipPayload(&Rumors{Set: full}, nil, false),
		"gossip-informed-flag":        NewWireGossipPayload(nil, m, true),
		"gossip-empty":                NewWireGossipPayload(nil, nil, false),
		"pp-rumor":                    ppRumor,
		"pp-request":                  ppRequest,
		"avg":                         AvgPayload{S: -3.25, W: 0.125},
		"avg-zero":                    AvgPayload{},
	}
}

func TestPayloadWireRoundTrip(t *testing.T) {
	for name, pl := range wirePayloads() {
		enc, err := AppendPayload(nil, pl)
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		dec, err := DecodePayload(enc)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if !WirePayloadEquals(pl, dec) {
			t.Errorf("%s: round-trip mismatch: sent %#v, got %#v", name, pl, dec)
		}
	}
}

// Every strict prefix of a valid encoding must be rejected, never crash,
// and never decode to a payload.
func TestPayloadWireTruncation(t *testing.T) {
	for name, pl := range wirePayloads() {
		enc, err := AppendPayload(nil, pl)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < len(enc); k++ {
			if _, err := DecodePayload(enc[:k]); err == nil {
				t.Errorf("%s: truncation to %d/%d bytes decoded cleanly", name, k, len(enc))
			}
		}
		if _, err := DecodePayload(append(append([]byte(nil), enc...), 0)); err == nil {
			t.Errorf("%s: trailing byte decoded cleanly", name)
		}
	}
}

func TestPayloadWireRejectsCorruption(t *testing.T) {
	enc, err := AppendPayload(nil, NewWireGossipPayload(&Rumors{Set: bitset.New(4)}, nil, false))
	if err != nil {
		t.Fatal(err)
	}

	bad := append([]byte(nil), enc...)
	bad[0] = PayloadWireVersion + 1
	if _, err := DecodePayload(bad); err == nil {
		t.Error("future wire version accepted")
	}

	bad = append([]byte(nil), enc...)
	bad[1] = 0x7f
	if _, err := DecodePayload(bad); err == nil {
		t.Error("unknown payload kind accepted")
	}

	// A corrupt universe length must not translate into a giant allocation.
	huge := []byte{PayloadWireVersion, payloadKindGossip, gpFlagRumors, 0xff, 0xff, 0xff, 0xff}
	if _, err := DecodePayload(huge); err == nil {
		t.Error("out-of-range universe accepted")
	}

	if _, err := DecodePayload([]byte{PayloadWireVersion, payloadKindPP, 9}); err == nil {
		t.Error("unknown push-pull payload value accepted")
	}
}

// Non-canonical encodings — bytes AppendPayload never produces — are
// rejected, so every accepted encoding re-encodes to itself.
func TestPayloadWireRejectsNonCanonical(t *testing.T) {
	gossip := func(flags byte, n uint32, rest ...byte) []byte {
		b := []byte{PayloadWireVersion, payloadKindGossip, flags, byte(n >> 24), byte(n >> 16), byte(n >> 8), byte(n)}
		return append(b, rest...)
	}
	cases := map[string][]byte{
		"unknown flag":           gossip(1<<4, 0),
		"values without rumors":  gossip(gpFlagVals, 0),
		"universe without a set": gossip(0, 12),
		"rumor padding bit":      gossip(gpFlagRumors, 4, 1<<4),
		"informed padding bit":   gossip(gpFlagInformed, 2, 0, 1<<2),
	}
	for name, enc := range cases {
		if _, err := DecodePayload(enc); err == nil {
			t.Errorf("%s: %x accepted", name, enc)
		}
	}
	// The same shapes without the stray bits decode.
	for _, enc := range [][]byte{gossip(gpFlagRumors, 4, 1<<3), gossip(gpFlagInformed, 2, 0, 1<<1)} {
		if _, err := DecodePayload(enc); err != nil {
			t.Errorf("%x: %v", enc, err)
		}
	}
}

func TestPayloadWireRejectsUnsupported(t *testing.T) {
	if _, err := AppendPayload(nil, struct{ X int }{1}); err == nil {
		t.Error("arbitrary payload type encoded")
	}
	set := bitset.New(8)
	m := bitset.NewMatrix(16)
	if _, err := AppendPayload(nil, NewWireGossipPayload(&Rumors{Set: set}, m, false)); err == nil {
		t.Error("mismatched rumor/informed universes encoded")
	}
}

// Decoded payloads must be fully caller-owned: mutating them must not
// alias the encoder's inputs.
func TestPayloadWireDecodeOwnsStorage(t *testing.T) {
	set := bitset.New(8)
	set.Add(2)
	orig := NewWireGossipPayload(&Rumors{Set: set, Vals: make([]uint8, 8)}, nil, false)
	enc, err := AppendPayload(nil, orig)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodePayload(enc)
	if err != nil {
		t.Fatal(err)
	}
	gp := dec.(*GossipPayload)
	gp.Rumors.Set.Add(5)
	gp.Rumors.Vals[0] = 9
	if set.Test(5) || orig.Rumors.Vals[0] == 9 {
		t.Error("decoded payload aliases encoder storage")
	}
}

// FuzzDecodePayload feeds arbitrary bytes to the payload decoder, which
// reads them straight off the network. It must never panic, and the
// encoding must be canonical: anything that decodes re-encodes to exactly
// the same bytes and decodes again to an equal payload.
func FuzzDecodePayload(f *testing.F) {
	for _, pl := range wirePayloads() {
		enc, err := AppendPayload(nil, pl)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	f.Add([]byte{PayloadWireVersion, payloadKindGossip, gpFlagRumors, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{PayloadWireVersion, payloadKindPP, 9})
	f.Add([]byte{PayloadWireVersion, payloadKindGossip, 0x30, 0, 0x0c, 0x30, 0x30})
	f.Add([]byte{PayloadWireVersion, payloadKindGossip, gpFlagRumors | gpFlagVals | gpFlagInformed, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		pl, err := DecodePayload(data)
		if err != nil {
			return
		}
		enc, err := AppendPayload(nil, pl)
		if err != nil {
			t.Fatalf("decoded %#v does not re-encode: %v", pl, err)
		}
		if !bytes.Equal(enc, data) {
			t.Fatalf("non-canonical encoding accepted:\n in  %x\n out %x", data, enc)
		}
		back, err := DecodePayload(enc)
		if err != nil || !WirePayloadEquals(pl, back) {
			t.Fatalf("re-encoding does not round-trip: %#v vs %#v (%v)", pl, back, err)
		}
	})
}
