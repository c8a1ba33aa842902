package packet

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"github.com/netmeasure/rlir/internal/simtime"
)

func TestFlowKeyAsMapKey(t *testing.T) {
	k1 := FlowKey{Src: AddrFrom4(10, 0, 0, 1), Dst: AddrFrom4(10, 0, 0, 2), SrcPort: 1234, DstPort: 80, Proto: ProtoTCP}
	k2 := k1
	m := map[FlowKey]int{k1: 7}
	if m[k2] != 7 {
		t.Fatal("equal keys should collide in map")
	}
	k2.SrcPort = 1235
	if _, ok := m[k2]; ok {
		t.Fatal("different keys should not collide")
	}
}

func TestFlowKeyReverse(t *testing.T) {
	k := FlowKey{Src: AddrFrom4(1, 2, 3, 4), Dst: AddrFrom4(5, 6, 7, 8), SrcPort: 10, DstPort: 20, Proto: ProtoUDP}
	r := k.Reverse()
	if r.Src != k.Dst || r.Dst != k.Src || r.SrcPort != k.DstPort || r.DstPort != k.SrcPort {
		t.Fatalf("Reverse = %v", r)
	}
	if r.Reverse() != k {
		t.Fatal("double reverse should be identity")
	}
}

func TestFastHashDistinguishesFields(t *testing.T) {
	base := FlowKey{Src: AddrFrom4(10, 0, 0, 1), Dst: AddrFrom4(10, 0, 0, 2), SrcPort: 1, DstPort: 2, Proto: ProtoTCP}
	h := base.FastHash()
	variants := []FlowKey{
		{Src: AddrFrom4(10, 0, 0, 3), Dst: base.Dst, SrcPort: 1, DstPort: 2, Proto: ProtoTCP},
		{Src: base.Src, Dst: AddrFrom4(10, 0, 0, 3), SrcPort: 1, DstPort: 2, Proto: ProtoTCP},
		{Src: base.Src, Dst: base.Dst, SrcPort: 9, DstPort: 2, Proto: ProtoTCP},
		{Src: base.Src, Dst: base.Dst, SrcPort: 1, DstPort: 9, Proto: ProtoTCP},
		{Src: base.Src, Dst: base.Dst, SrcPort: 1, DstPort: 2, Proto: ProtoUDP},
		base.Reverse(),
	}
	for i, v := range variants {
		if v.FastHash() == h {
			t.Errorf("variant %d hashes equal to base (weak hash)", i)
		}
	}
}

func TestFastHashDeterministicProperty(t *testing.T) {
	f := func(src, dst uint32, sp, dp uint16, proto uint8) bool {
		k := FlowKey{Src: Addr(src), Dst: Addr(dst), SrcPort: sp, DstPort: dp, Proto: Proto(proto)}
		return k.FastHash() == k.FastHash()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRefPayloadDelay(t *testing.T) {
	r := RefPayload{Timestamp: simtime.FromSeconds(1.0)}
	got := r.Delay(simtime.FromSeconds(1.0).Add(83 * time.Microsecond))
	if got != 83*time.Microsecond {
		t.Fatalf("Delay = %v, want 83µs", got)
	}
}

func TestRecordHopAndTraversed(t *testing.T) {
	var p Packet
	p.RecordHop(3)
	p.RecordHop(7)
	if !p.Traversed(3) || !p.Traversed(7) || p.Traversed(5) {
		t.Fatalf("Hops = %v", p.Hops)
	}
}

// TestRecordHopInline pins the path trace's storage: a fat-tree path fits
// the inline buffer without allocating, a longer one spills intact, and a
// struct copy never appends into the original's buffer.
func TestRecordHopInline(t *testing.T) {
	var p Packet
	allocs := testing.AllocsPerRun(100, func() {
		p.Hops = nil
		for i := int32(0); i < inlineHops; i++ {
			p.RecordHop(i)
		}
	})
	if allocs != 0 {
		t.Fatalf("RecordHop within %d hops allocated %.1f times per path", inlineHops, allocs)
	}

	p.Hops = nil
	var want []int32
	for i := int32(0); i < 2*inlineHops; i++ {
		p.RecordHop(i)
		want = append(want, i)
	}
	if fmt.Sprint(p.Hops) != fmt.Sprint(want) {
		t.Fatalf("spilled Hops = %v, want %v", p.Hops, want)
	}

	var orig Packet
	orig.RecordHop(1)
	orig.RecordHop(2)
	cp := orig
	cp.RecordHop(9)
	orig.RecordHop(3)
	if fmt.Sprint(orig.Hops) != "[1 2 3]" || fmt.Sprint(cp.Hops) != "[1 2 9]" {
		t.Fatalf("copy aliasing: orig %v, copy %v", orig.Hops, cp.Hops)
	}

	q := Packet{Hops: []int32{4, 5}}
	q.RecordHop(6)
	if fmt.Sprint(q.Hops) != "[4 5 6]" {
		t.Fatalf("preset Hops extended to %v", q.Hops)
	}
}

func TestStringersSmoke(t *testing.T) {
	k := FlowKey{Src: AddrFrom4(10, 0, 0, 1), Dst: AddrFrom4(10, 0, 0, 2), SrcPort: 1234, DstPort: 80, Proto: ProtoTCP}
	if k.String() == "" {
		t.Error("empty FlowKey.String")
	}
	p := Packet{ID: 1, Key: k, Size: 64, Kind: Reference}
	if p.String() == "" {
		t.Error("empty Packet.String")
	}
	for _, kind := range []Kind{Regular, Reference, Cross, Kind(99)} {
		if kind.String() == "" {
			t.Error("empty Kind.String")
		}
	}
	for _, pr := range []Proto{ProtoTCP, ProtoUDP, Proto(47)} {
		if pr.String() == "" {
			t.Error("empty Proto.String")
		}
	}
}

// TestFlowKeyLess pins the canonical ordering: strict weak, field by field.
func TestFlowKeyLess(t *testing.T) {
	base := FlowKey{Src: 1, Dst: 2, SrcPort: 3, DstPort: 4, Proto: ProtoTCP}
	if base.Less(base) {
		t.Fatal("key < itself")
	}
	bump := []FlowKey{
		{Src: 2, Dst: 2, SrcPort: 3, DstPort: 4, Proto: ProtoTCP},
		{Src: 1, Dst: 3, SrcPort: 3, DstPort: 4, Proto: ProtoTCP},
		{Src: 1, Dst: 2, SrcPort: 4, DstPort: 4, Proto: ProtoTCP},
		{Src: 1, Dst: 2, SrcPort: 3, DstPort: 5, Proto: ProtoTCP},
		{Src: 1, Dst: 2, SrcPort: 3, DstPort: 4, Proto: ProtoUDP},
	}
	for i, hi := range bump {
		if !base.Less(hi) || hi.Less(base) {
			t.Fatalf("field %d: ordering wrong for %v vs %v", i, base, hi)
		}
	}
	// Earlier fields dominate later ones.
	lo := FlowKey{Src: 1, Dst: 9, SrcPort: 9, DstPort: 9, Proto: ProtoUDP}
	hi := FlowKey{Src: 2}
	if !lo.Less(hi) || hi.Less(lo) {
		t.Fatal("Src must dominate later fields")
	}
}
