package core

import (
	"testing"

	"gompi/internal/transport"
)

// FuzzParseFrame feeds arbitrary bytes to the engine's frame decoder
// under an arbitrary world size. The decoder must never panic, and a
// frame it accepts must name a source inside the world and carry a
// payload that lies within the frame (the tail of its bytes). The seed
// corpus under testdata/fuzz/FuzzParseFrame holds a valid eager frame,
// a rendezvous RTS, a truncated header, and synchronous eager frames
// from source ranks -1 and size.
func FuzzParseFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, size uint8) {
		p, err := parseFrame(transport.Frame{Data: data}, int(size))
		if err != nil {
			return
		}
		if p.env.srcWorld < 0 || int(p.env.srcWorld) >= int(size) {
			t.Fatalf("accepted source %d outside the %d-rank world", p.env.srcWorld, size)
		}
		if n := len(p.payload); n > len(data) || (n > 0 && &p.payload[n-1] != &data[len(data)-1]) {
			t.Fatalf("payload of %d bytes does not lie within the %d-byte frame", n, len(data))
		}
	})
}
