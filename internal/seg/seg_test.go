package seg

import "testing"

func TestPacketEnd(t *testing.T) {
	p := &Packet{Seq: 1000, Len: MSS}
	if got := p.End(); got != 1000+int64(MSS) {
		t.Errorf("End() = %d, want %d", got, 1000+int64(MSS))
	}
}

func TestMSSIsEthernetPayload(t *testing.T) {
	// 1500-byte MTU minus 40 bytes of IPv4+TCP headers.
	if MSS != 1460 {
		t.Errorf("MSS = %d, want 1460", MSS)
	}
}
