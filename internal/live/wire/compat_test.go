package wire

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// The codec reads exactly one format. Frames of the earlier formats
// (version bytes 1-6) are refused, never read with today's layout. The
// fuzz corpus under testdata/fuzz/FuzzDecode holds frames captured from
// those earlier encoders, so the tests below check the refusal on real
// old-format bytes rather than on a current frame with its first byte
// changed (TestDecodeRejectsOtherVersions does that for every byte).

func TestDecodeV1Compat(t *testing.T) { checkRetiredVersion(t, 1) }
func TestDecodeV2Compat(t *testing.T) { checkRetiredVersion(t, 2) }
func TestDecodeV3Compat(t *testing.T) { checkRetiredVersion(t, 3) }
func TestDecodeV4Compat(t *testing.T) { checkRetiredVersion(t, 4) }
func TestDecodeV5Compat(t *testing.T) { checkRetiredVersion(t, 5) }

// checkRetiredVersion requires every corpus frame stamped version v to
// be refused for its version, and at least one such frame to exist.
func checkRetiredVersion(t *testing.T, v byte) {
	t.Helper()
	frames := corpusFrames(t)
	want := fmt.Sprintf("wire: version %d,", v)
	n := 0
	for name, b := range frames {
		if len(b) == 0 || b[0] != v {
			continue
		}
		n++
		m, err := Decode(b)
		if err == nil {
			t.Errorf("%s: version-%d frame decoded as %+v", name, v, m)
		} else if !strings.HasPrefix(err.Error(), want) {
			t.Errorf("%s: version-%d frame refused for %q, not for its version", name, v, err)
		}
	}
	if n == 0 {
		t.Fatalf("no version-%d frame in the FuzzDecode corpus", v)
	}
}

// corpusFrames reads the FuzzDecode corpus files, each a single []byte
// value in the "go test fuzz v1" format, keyed by file name.
func corpusFrames(t *testing.T) map[string][]byte {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzDecode", "*"))
	if err != nil {
		t.Fatal(err)
	}
	frames := make(map[string][]byte, len(paths))
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		if len(lines) != 2 || lines[0] != "go test fuzz v1" {
			t.Fatalf("%s: not a one-value fuzz corpus file", p)
		}
		lit, ok := strings.CutPrefix(lines[1], "[]byte(")
		lit, ok2 := strings.CutSuffix(lit, ")")
		if !ok || !ok2 {
			t.Fatalf("%s: value is not a []byte literal", p)
		}
		s, err := strconv.Unquote(lit)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		frames[filepath.Base(p)] = []byte(s)
	}
	return frames
}
