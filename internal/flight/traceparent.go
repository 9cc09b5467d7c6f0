package flight

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"strings"
	"sync/atomic"
)

// W3C trace-context helpers. The daemon speaks the traceparent header
// (version 00): it adopts an inbound trace id so the evaluation shows
// up inside the caller's distributed trace, or mints a fresh one. The
// trace id doubles as the request id everywhere (X-Request-Id, slog,
// flight records, error envelopes).

// idFallback seeds deterministic ids if crypto/rand ever fails
// (practically unreachable; ids must still be unique within the
// process for the recorder to be usable).
var idFallback atomic.Uint64

func randHex(n int) string {
	b := make([]byte, n)
	if _, err := rand.Read(b); err != nil {
		binary.BigEndian.PutUint64(b[:8], idFallback.Add(1))
	}
	allZero := true
	for _, c := range b {
		if c != 0 {
			allZero = false
			break
		}
	}
	if allZero {
		b[n-1] = 1 // all-zero ids are invalid per W3C trace-context
	}
	return hex.EncodeToString(b)
}

// NewTraceID returns a fresh 32-hex W3C trace id.
func NewTraceID() string { return randHex(16) }

// NewSpanID returns a fresh 16-hex W3C span id.
func NewSpanID() string { return randHex(8) }

func isLowerHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func allZeroHex(s string) bool { return strings.Trim(s, "0") == "" }

// ParseTraceparent parses a W3C traceparent header
// ("00-<32 hex trace-id>-<16 hex parent-id>-<2 hex flags>") and
// returns the trace id and parent span id. ok is false for malformed
// headers, unknown versions handled per spec (version ff invalid),
// and all-zero ids.
func ParseTraceparent(h string) (traceID, parentSpanID string, ok bool) {
	parts := strings.Split(strings.TrimSpace(h), "-")
	if len(parts) < 4 {
		return "", "", false
	}
	ver, tid, pid, flags := parts[0], parts[1], parts[2], parts[3]
	if len(ver) != 2 || !isLowerHex(ver) || ver == "ff" {
		return "", "", false
	}
	if ver == "00" && len(parts) != 4 {
		return "", "", false
	}
	if len(tid) != 32 || !isLowerHex(tid) || allZeroHex(tid) {
		return "", "", false
	}
	if len(pid) != 16 || !isLowerHex(pid) || allZeroHex(pid) {
		return "", "", false
	}
	if len(flags) != 2 || !isLowerHex(flags) {
		return "", "", false
	}
	return tid, pid, true
}

// FormatTraceparent renders a version-00 traceparent with the sampled
// flag set (the daemon records every request by design).
func FormatTraceparent(traceID, spanID string) string {
	return "00-" + traceID + "-" + spanID + "-01"
}
