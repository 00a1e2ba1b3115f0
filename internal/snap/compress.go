package snap

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
)

// The paper notes that trace buffers are "readily compressible by a
// factor of 10 or more for ease of archiving or transmission": DAG
// records repeat heavily (hot loops re-record the same header word).
// SaveCompressed/LoadAuto provide that archival form, the only form a
// snap file takes.

// Load-error classes, matchable with errors.Is. Archival tooling
// (the snap warehouse, batch reconstruction) dispatches on these to
// tell a corrupt transfer from an empty file from a snap with junk
// appended, instead of pattern-matching raw decoder messages.
var (
	// ErrEmpty: the input held no bytes at all.
	ErrEmpty = errors.New("empty snap input")
	// ErrNotGzip: the input does not start with the gzip magic; a snap
	// file is always one gzip member.
	ErrNotGzip = errors.New("snap input is not gzip")
	// ErrTruncated: the input ended mid-stream (cut-short gzip body or
	// JSON document — the footprint of an interrupted copy).
	ErrTruncated = errors.New("truncated snap input")
	// ErrTrailingData: a complete gzip member was followed by further
	// bytes (a second member or appended garbage); the snap archival
	// form is exactly one member.
	ErrTrailingData = errors.New("trailing data after snap")
	// ErrTooLarge: the gzip member inflates past MaxInflatedBytes (a
	// decompression bomb, or a snap no deployment produces).
	ErrTooLarge = errors.New("snap inflates past the size limit")
)

// MaxInflatedBytes bounds what one gzip member may inflate to. Honest
// snaps compress around 400:1, so a cap on the compressed size alone
// (the daemon's upload limit) bounds nothing; this is the same 64 MiB
// the daemon allows a compressed body by default.
const MaxInflatedBytes = 64 << 20

// SaveCompressed writes the snap as gzip-compressed JSON.
func (s *Snap) SaveCompressed(w io.Writer) error { return gzipTo(w, s.Save) }

// WriteGzip writes already-encoded snap JSON in the archival form.
// Spool files, upload bodies and warehouse blobs are all this one
// encoding of the canonical bytes the content address is computed
// over, so the same snap is the same bytes at every hop.
func WriteGzip(w io.Writer, canonical []byte) error {
	return gzipTo(w, func(zw io.Writer) error {
		_, err := zw.Write(canonical)
		return err
	})
}

func gzipTo(w io.Writer, fill func(io.Writer) error) error {
	zw, err := gzip.NewWriterLevel(w, gzip.BestCompression)
	if err != nil {
		return err
	}
	if err := fill(zw); err != nil {
		zw.Close()
		return err
	}
	return zw.Close()
}

// LoadAuto reads a snap in its one file form: a single complete gzip
// member of the snap JSON. Input that is not gzip is refused as
// ErrNotGzip; truncation and trailing garbage are reported as wrapped
// ErrTruncated / ErrTrailingData rather than raw decoder failures.
func LoadAuto(r io.Reader) (*Snap, error) { return loadAuto(r, nil) }

// LoadCanonical is LoadAuto that also returns every byte the gzip
// member inflates to, bytes after the JSON value included. It accepts
// and rejects what LoadAuto does. A caller that finds raw equal to s's
// Save bytes knows the input was the canonical encoding and can hash
// raw instead of encoding s again: the collection daemon's one pass
// over an upload.
func LoadCanonical(r io.Reader) (s *Snap, raw []byte, err error) {
	var tee bytes.Buffer
	if s, err = loadAuto(r, &tee); err != nil {
		return nil, nil, err
	}
	return s, tee.Bytes(), nil
}

// loadAuto is LoadAuto, copying what the JSON decoder reads into tee
// when tee is not nil.
func loadAuto(r io.Reader, tee *bytes.Buffer) (*Snap, error) {
	br := bufio.NewReader(r)
	magic, err := br.Peek(2)
	if err != nil && len(magic) == 0 {
		if err == io.EOF {
			return nil, fmt.Errorf("snap: %w", ErrEmpty)
		}
		return nil, fmt.Errorf("snap: %w", err)
	}
	if len(magic) < 2 || magic[0] != 0x1f || magic[1] != 0x8b {
		return nil, fmt.Errorf("snap: %w", ErrNotGzip)
	}
	zr, err := gzip.NewReader(br)
	if err != nil {
		return nil, fmt.Errorf("snap: %w", classifyGzipErr(err))
	}
	defer zr.Close()
	// One member only: appended garbage (or a second member) must not
	// be silently swallowed by gzip's multistream default.
	zr.Multistream(false)
	// One byte past the cap, so a member of exactly the cap still
	// reaches its trailer.
	lr := &io.LimitedReader{R: zr, N: MaxInflatedBytes + 1}
	var src io.Reader = lr
	if tee != nil {
		src = io.TeeReader(lr, tee)
	}
	s, err := Load(src)
	if err != nil {
		err = fmt.Errorf("gzip member: %w", classifyGzipErr(err))
	} else if _, err = io.Copy(io.Discard, src); err != nil {
		// Draining the member forces the trailer (CRC/length) check,
		// which is where a truncated body surfaces.
		err = fmt.Errorf("snap: %w", classifyGzipErr(err))
	}
	if lr.N == 0 {
		return nil, fmt.Errorf("snap: %w", ErrTooLarge)
	}
	if err != nil {
		return nil, err
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("snap: %w", ErrTrailingData)
	}
	return s, nil
}

// classifyGzipErr folds the decoder's raw end-of-stream errors into
// the inspectable ErrTruncated class; anything else (bad header,
// corrupt flate data, invalid JSON) passes through wrapped as-is.
func classifyGzipErr(err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF) {
		return fmt.Errorf("%w (%v)", ErrTruncated, err)
	}
	return err
}
