package nes

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"sync"

	"exdra/internal/matrix"
)

// FileSink is the buffered file sink of §3.4: NES appends collected stream
// tuples; a retention period bounds the kept history (e.g. the last two
// days); ML training sessions read a consistent in-memory snapshot. When a
// path is configured, appended tuples are also persisted as CSV so a
// federated worker can READ them as raw data.
type FileSink struct {
	mu sync.Mutex
	// RetentionTuples bounds the number of retained tuples (0 = unbounded).
	retentionTuples int
	// RetentionAge drops tuples whose TS is older than newestTS - age
	// (0 = unbounded).
	retentionAge int64
	buf          []Tuple // guarded by mu
	path         string
	file         *os.File      // guarded by mu
	w            *bufio.Writer // guarded by mu
}

// NewFileSink creates a sink retaining up to retentionTuples tuples and, if
// age > 0, only tuples within age of the newest timestamp. path may be
// empty for a purely in-memory sink.
func NewFileSink(path string, retentionTuples int, age int64) (*FileSink, error) {
	s := &FileSink{retentionTuples: retentionTuples, retentionAge: age, path: path}
	if path != "" {
		f, err := os.Create(path)
		if err != nil {
			return nil, fmt.Errorf("nes: create sink file: %w", err)
		}
		s.file = f
		s.w = bufio.NewWriter(f)
	}
	return s, nil
}

// Append adds one tuple, enforcing retention.
func (s *FileSink) Append(t Tuple) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.buf = append(s.buf, t)
	if s.retentionTuples > 0 && len(s.buf) > s.retentionTuples {
		s.buf = s.buf[len(s.buf)-s.retentionTuples:]
	}
	if s.retentionAge > 0 {
		newest := s.buf[len(s.buf)-1].TS
		cut := 0
		for cut < len(s.buf) && s.buf[cut].TS < newest-s.retentionAge {
			cut++
		}
		s.buf = s.buf[cut:]
	}
	if s.w != nil {
		s.w.WriteString(strconv.FormatInt(t.TS, 10))
		for _, v := range t.Values {
			s.w.WriteByte(',')
			s.w.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		}
		s.w.WriteByte('\n')
	}
}

// Len returns the number of retained tuples.
func (s *FileSink) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.buf)
}

// Snapshot returns a consistent in-memory copy of the retained tuples as a
// matrix (rows = tuples, columns = channels) — the matrix an iterative
// training session works on while the stream keeps appending.
func (s *FileSink) Snapshot() *matrix.Dense {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.buf) == 0 {
		return matrix.NewDense(0, 0)
	}
	cols := len(s.buf[0].Values)
	out := matrix.NewDense(len(s.buf), cols)
	for i, t := range s.buf {
		copy(out.Row(i), t.Values)
	}
	return out
}

// Close flushes and closes the backing file.
func (s *FileSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.file == nil {
		return nil
	}
	if err := s.w.Flush(); err != nil {
		s.file.Close()
		return err
	}
	err := s.file.Close()
	s.file = nil
	return err
}
