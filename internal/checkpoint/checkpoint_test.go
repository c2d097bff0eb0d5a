package checkpoint

import (
	"bytes"
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"permcell/internal/particle"
	"permcell/internal/vec"
)

// Save writes one checkpoint into dir through a Saver used once, as a
// run's first save does.
func Save(dir string, meta *Meta, frames []Frame) (string, error) {
	return new(Saver).Save(dir, meta, frames)
}

func testMeta(step int) *Meta {
	return &Meta{
		Version: FormatVersion, Step: step,
		Spec: Spec{
			Kind: KindDLB, M: 3, P: 4, Rho: 0.256,
			Wells: 12, WellK: 1.5, Seed: 7, Dt: 0.005, StatsEvery: 1,
		},
		DLB: true, Hysteresis: 0.1,
		CommMsgs: 123, CommBytes: 4567,
	}
}

func testFrames(p int) []Frame {
	frames := make([]Frame, p)
	for r := range frames {
		s := &particle.Set{}
		for i := 0; i < 5+r; i++ {
			id := int64(r*100 + i)
			s.Add(id, vec.New(float64(i), float64(r), 0.5), vec.New(0.1*float64(i), -0.2, 0))
		}
		CaptureFrame(&frames[r], r, s, []int{r, r + p})
	}
	return frames
}

func TestRoundTrip(t *testing.T) {
	meta := testMeta(42)
	frames := testFrames(4)
	var buf bytes.Buffer
	if err := Encode(&buf, meta, frames); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	gotMeta, gotFrames, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(gotMeta, meta) {
		t.Errorf("meta mismatch:\n got %+v\nwant %+v", gotMeta, meta)
	}
	if !reflect.DeepEqual(gotFrames, frames) {
		t.Errorf("frames mismatch")
	}
}

func TestFrameSetOfPreservesOrder(t *testing.T) {
	s := &particle.Set{}
	// Deliberately non-sorted IDs: live order must survive the round trip.
	for _, id := range []int64{9, 3, 7, 1} {
		s.Add(id, vec.New(float64(id), 0, 0), vec.New(0, float64(id), 0))
	}
	var fr Frame
	CaptureFrame(&fr, 0, s, nil)
	got, err := fr.SetOf()
	if err != nil {
		t.Fatalf("SetOf: %v", err)
	}
	if !reflect.DeepEqual(got.ID, s.ID) {
		t.Errorf("ID order changed: got %v want %v", got.ID, s.ID)
	}
	if !reflect.DeepEqual(got.Pos, s.Pos) || !reflect.DeepEqual(got.Vel, s.Vel) {
		t.Errorf("pos/vel mismatch after SetOf")
	}
}

func TestTruncationIsCleanError(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, testMeta(10), testFrames(2)); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	full := buf.Bytes()
	// Every strict prefix must fail cleanly, never panic, never succeed.
	for _, n := range []int{0, 4, 8, 15, 16, 20, len(full) / 2, len(full) - 1} {
		if n >= len(full) {
			continue
		}
		if _, _, err := Decode(bytes.NewReader(full[:n])); err == nil {
			t.Errorf("Decode of %d/%d byte prefix succeeded; want error", n, len(full))
		}
	}
}

func TestBitFlipFailsCRC(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, testMeta(10), testFrames(2)); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	full := buf.Bytes()
	// Flip one bit in every byte position past the fixed header; each must
	// be detected (CRC, framing, or gob error) — never silently accepted.
	for i := 16; i < len(full); i += 7 {
		mut := append([]byte(nil), full...)
		mut[i] ^= 0x10
		if _, _, err := Decode(bytes.NewReader(mut)); err == nil {
			t.Errorf("bit flip at byte %d went undetected", i)
		}
	}
}

func TestBadMagicAndVersion(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, testMeta(1), nil); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	full := buf.Bytes()

	mut := append([]byte(nil), full...)
	mut[0] = 'X'
	if _, _, err := Decode(bytes.NewReader(mut)); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Errorf("bad magic: got %v", err)
	}

	mut = append([]byte(nil), full...)
	mut[8] = 99 // version field
	if _, _, err := Decode(bytes.NewReader(mut)); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("future version: got %v", err)
	}

	// Trailing garbage after a valid stream must be rejected.
	mut = append(append([]byte(nil), full...), 0xAB)
	if _, _, err := Decode(bytes.NewReader(mut)); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Errorf("trailing data: got %v", err)
	}
}

func TestSaveRotatesAndLoadDirFallsBack(t *testing.T) {
	dir := t.TempDir()
	frames := testFrames(2)

	if _, err := Save(dir, testMeta(100), frames); err != nil {
		t.Fatalf("Save 1: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, PreviousName)); !os.IsNotExist(err) {
		t.Fatalf("previous exists after first save: %v", err)
	}
	if _, err := Save(dir, testMeta(200), frames); err != nil {
		t.Fatalf("Save 2: %v", err)
	}

	meta, _, err := LoadPath(dir)
	if err != nil {
		t.Fatalf("LoadPath: %v", err)
	}
	if meta.Step != 200 {
		t.Fatalf("LoadPath picked step %d; want 200 from latest", meta.Step)
	}
	pm, _, err := Load(filepath.Join(dir, PreviousName))
	if err != nil {
		t.Fatalf("Load previous: %v", err)
	}
	if pm.Step != 100 {
		t.Fatalf("previous holds step %d; want 100", pm.Step)
	}

	// Corrupt latest: LoadPath must fall back to previous.
	latest := filepath.Join(dir, LatestName)
	data, err := os.ReadFile(latest)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(latest, data, 0o666); err != nil {
		t.Fatal(err)
	}
	meta, _, err = LoadPath(dir)
	if err != nil {
		t.Fatalf("LoadPath after corruption: %v", err)
	}
	if meta.Step != 100 {
		t.Fatalf("fallback picked step %d; want 100 from previous", meta.Step)
	}

	// Truncate previous too: now LoadPath must fail with both causes.
	if err := os.Truncate(filepath.Join(dir, PreviousName), 10); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadPath(dir); err == nil {
		t.Fatal("LoadPath succeeded with both files corrupt")
	}
}

func TestEngineStateValidate(t *testing.T) {
	st := &EngineState{Step: 5, Frames: testFrames(3)}
	if err := st.Validate(3); err != nil {
		t.Fatalf("valid state rejected: %v", err)
	}
	if err := st.Validate(4); err == nil {
		t.Error("wrong rank count accepted")
	}
	bad := &EngineState{Step: -1, Frames: testFrames(3)}
	if err := bad.Validate(3); err == nil {
		t.Error("negative step accepted")
	}
	swapped := &EngineState{Step: 5, Frames: testFrames(3)}
	swapped.Frames[0].Rank = 2
	if err := swapped.Validate(3); err == nil {
		t.Error("mis-ranked frame accepted")
	}
	ragged := &EngineState{Step: 5, Frames: testFrames(3)}
	ragged.Frames[1].Vel = ragged.Frames[1].Vel[:1]
	if err := ragged.Validate(3); err == nil {
		t.Error("ragged frame accepted")
	}
}

// TestConcurrentSavesSameDir drives many simultaneous Saves into one
// directory. Each writer lands in its own temporary file (a fixed tmp name
// would make writers truncate each other mid-stream), so whatever ends up
// as latest.ckpt must always be a complete, loadable checkpoint.
func TestConcurrentSavesSameDir(t *testing.T) {
	dir := t.TempDir()
	frames := testFrames(4)
	done := make(chan error, 8)
	for w := 0; w < 8; w++ {
		go func() {
			var err error
			for i := 0; i < 10 && err == nil; i++ {
				_, err = Save(dir, testMeta(w*100+i), frames)
			}
			done <- err
		}()
	}
	for w := 0; w < 8; w++ {
		if err := <-done; err != nil {
			t.Fatalf("concurrent Save: %v", err)
		}
	}
	if _, _, err := Load(filepath.Join(dir, LatestName)); err != nil {
		t.Fatalf("latest checkpoint unreadable after concurrent saves: %v", err)
	}
	// No temporary files may survive.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp") {
			t.Errorf("leftover temporary file %s", e.Name())
		}
	}
}

// TestWriteAtomic pins the tmp+rename contract: the destination either
// keeps its old content (writer failed) or atomically becomes the new
// content, and failed writers leave no temporary files behind.
func TestWriteAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.txt")
	if err := WriteAtomic(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "first")
		return err
	}); err != nil {
		t.Fatalf("WriteAtomic: %v", err)
	}
	if b, _ := os.ReadFile(path); string(b) != "first" {
		t.Fatalf("content = %q", b)
	}

	sentinel := errors.New("writer failed")
	if err := WriteAtomic(path, func(w io.Writer) error {
		io.WriteString(w, "partial garbage")
		return sentinel
	}); !errors.Is(err, sentinel) {
		t.Fatalf("error not propagated: %v", err)
	}
	if b, _ := os.ReadFile(path); string(b) != "first" {
		t.Fatalf("failed write clobbered the destination: %q", b)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "out.txt" {
		t.Fatalf("directory not clean after failed write: %v", ents)
	}

	if err := WriteAtomic(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "second")
		return err
	}); err != nil {
		t.Fatalf("WriteAtomic overwrite: %v", err)
	}
	if b, _ := os.ReadFile(path); string(b) != "second" {
		t.Fatalf("content after overwrite = %q", b)
	}
}

// TestSaveCrashPoints stops Save after every prefix of its filesystem
// steps. From a directory holding latest (step 20) and previous (step 10),
// LoadPath must find the old latest or the new file (step 30) after each
// one, never nothing; from an empty directory and from a first save's
// directory it must find what was there before or the new file. Running the
// remaining steps then completes the rotation with no temporary file left.
func TestSaveCrashPoints(t *testing.T) {
	const fresh = 30
	frames := testFrames(2)
	for _, c := range []struct {
		name    string
		before  []int // steps saved into the directory first, oldest first
		old     int   // the step LoadPath finds before the rotation, 0 for none
		prevEnd int   // the step previous holds afterwards, 0 for none
	}{
		{"empty", nil, 0, 0},
		{"after first save", []int{20}, 20, 20},
		{"latest and previous", []int{10, 20}, 20, 20},
	} {
		n := len(new(rotation).steps("", nil))
		for k := 0; k <= n; k++ {
			dir := t.TempDir()
			for _, step := range c.before {
				if _, err := Save(dir, testMeta(step), frames); err != nil {
					t.Fatal(err)
				}
			}
			b, err := appendStream(nil, testMeta(fresh), frames)
			if err != nil {
				t.Fatal(err)
			}
			var r rotation
			steps := r.steps(dir, b)
			for _, step := range steps[:k] {
				if err := step(); err != nil {
					t.Fatalf("%s, step %d: %v", c.name, k, err)
				}
			}
			meta, _, err := LoadPath(dir)
			switch {
			case err == nil && (meta.Step == fresh || meta.Step == c.old):
			case err != nil && c.old == 0 && k < n:
			default:
				t.Errorf("%s, stopped after %d of %d steps: LoadPath found %v (err %v), want step %d or %d",
					c.name, k, n, meta, err, c.old, fresh)
			}
			for _, step := range steps[k:] {
				if err := step(); err != nil {
					t.Fatalf("%s, step after %d: %v", c.name, k, err)
				}
			}
			if m, _, err := Load(filepath.Join(dir, LatestName)); err != nil || m.Step != fresh {
				t.Errorf("%s, resumed after %d: latest %v (err %v), want step %d", c.name, k, m, err, fresh)
			}
			pm, _, err := Load(filepath.Join(dir, PreviousName))
			if c.prevEnd == 0 && !errors.Is(err, fs.ErrNotExist) || c.prevEnd != 0 && (err != nil || pm.Step != c.prevEnd) {
				t.Errorf("%s, resumed after %d: previous %v (err %v), want step %d", c.name, k, pm, err, c.prevEnd)
			}
			noTemporaries(t, dir)
		}
	}
}

// noTemporaries fails on any temporary file left in dir.
func noTemporaries(t *testing.T, dir string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp") {
			t.Errorf("leftover temporary file %s", e.Name())
		}
	}
}

// TestSaverKeepsItsBuffer: once a Saver has written a file, a save of the
// same shape allocates less than an eighth of the file's size — the encode
// buffer is reused, not allocated and zeroed again — and writes the bytes a
// fresh Encode writes.
func TestSaverKeepsItsBuffer(t *testing.T) {
	dir := t.TempDir()
	meta, frames := testMeta(1), benchFrames(1, 55296)
	var s Saver
	for range 2 { // the second save rotates a live pair, as every later one does
		if _, err := s.Save(dir, meta, frames); err != nil {
			t.Fatal(err)
		}
	}
	const saves = 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range saves {
		if _, err := s.Save(dir, meta, frames); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	size := len(encodeNow(t, meta, frames))
	if per := (after.TotalAlloc - before.TotalAlloc) / saves; per >= uint64(size/8) {
		t.Errorf("a steady-state Save allocated %d bytes for a %d-byte file", per, size)
	}
	got, err := os.ReadFile(filepath.Join(dir, LatestName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, encodeNow(t, meta, frames)) {
		t.Error("a Save through a kept buffer wrote other bytes than Encode")
	}
}

// TestNormalizedResolvesDefaults: Normalized fills every default Build
// records, canonicalises a dlb balancer, keeps what is set, leaves what it
// cannot decode for Validate, and is idempotent.
func TestNormalizedResolvesDefaults(t *testing.T) {
	dlb := Spec{Kind: KindDLB, M: 2, P: 4, Rho: 0.256}
	set := Spec{Kind: KindDLB, M: 2, P: 4, Rho: 0.256, Balancer: "none", Seed: 9, Dt: 0.002, StatsEvery: 3}
	for _, c := range []struct {
		in, want Spec
	}{
		{dlb, Spec{Kind: KindDLB, M: 2, P: 4, Rho: 0.256, Balancer: "none", Seed: 1, Dt: DefaultDt, StatsEvery: 1}},
		{set, set},
		{Spec{Kind: KindDLB, Balancer: "bogus", StatsEvery: -2}, Spec{Kind: KindDLB, Balancer: "bogus", Seed: 1, Dt: DefaultDt, StatsEvery: 1}},
		{Spec{Kind: KindSerial, NC: 4, Rho: 0.3}, Spec{Kind: KindSerial, NC: 4, Rho: 0.3, Seed: 1, Dt: DefaultDt, StatsEvery: 1}},
	} {
		if got := c.in.Normalized(); got != c.want {
			t.Errorf("Normalized(%+v) = %+v, want %+v", c.in, got, c.want)
		}
		if got := c.want.Normalized(); got != c.want {
			t.Errorf("Normalized is not idempotent on %+v: %+v", c.want, got)
		}
	}
}
