package main

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"time"

	"exdra/internal/netem"
)

// measureLink measures the round-trip time and the bandwidth a connection
// shaped by cfg really delivers, through an echo server behind the same
// cfg: the client sends a length and that many bytes, the server answers
// one byte.
func measureLink(cfg netem.Config) (rttMS, mbPerS float64, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, 0, err
	}
	shaped := netem.WrapListener(ln, cfg)
	served := make(chan error, 1)
	go func() { served <- serveEcho(shaped) }()
	defer func() {
		ln.Close()
		if serr := <-served; err == nil {
			err = serr
		}
	}()

	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0, 0, err
	}
	conn := netem.Wrap(raw, cfg)
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(30 * time.Second)); err != nil {
		return 0, 0, err
	}

	exchange := func(n int) (time.Duration, error) {
		msg := make([]byte, 8+n)
		binary.LittleEndian.PutUint64(msg, uint64(n))
		start := time.Now()
		if _, err := conn.Write(msg); err != nil {
			return 0, err
		}
		var ack [1]byte
		if _, err := io.ReadFull(conn, ack[:]); err != nil {
			return 0, err
		}
		return time.Since(start), nil
	}
	var rtts []float64
	for i := 0; i < 7; i++ {
		// Exchanges closer together than the emulator's burst gap would
		// count as one burst and skip the latency.
		time.Sleep(5 * time.Millisecond)
		d, err := exchange(0)
		if err != nil {
			return 0, 0, err
		}
		rtts = append(rtts, float64(d.Nanoseconds())/1e6)
	}
	rttMS = median(rtts)
	if cfg.BandwidthBps <= 0 {
		return rttMS, 0, nil
	}
	// Half a second of payload: the reply's one-way latency is the only part
	// of the exchange that is not transfer time.
	n := int(cfg.BandwidthBps / 2)
	time.Sleep(5 * time.Millisecond)
	d, err := exchange(n)
	if err != nil {
		return 0, 0, err
	}
	transfer := d.Seconds() - rttMS/2e3
	return rttMS, float64(n) / 1e6 / transfer, nil
}

// serveEcho serves one connection of measureLink until the client hangs up.
func serveEcho(ln net.Listener) error {
	conn, err := ln.Accept()
	if err != nil {
		return err
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(30 * time.Second)); err != nil {
		return err
	}
	var hdr [8]byte
	for {
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
		if _, err := io.CopyN(io.Discard, conn, int64(binary.LittleEndian.Uint64(hdr[:]))); err != nil {
			return err
		}
		if _, err := conn.Write([]byte{1}); err != nil {
			return err
		}
	}
}

// calibrateLink checks the emulated link before a workload relies on it:
// observed RTT or bandwidth more than 10 % off the configured value voids
// the WAN and serve numbers, so the run fails. The observations are the
// netem.* per-layer metrics.
func calibrateLink(r *run, cfg netem.Config) error {
	if !cfg.Enabled() || r.cfg.link != nil {
		return nil
	}
	rttMS, mbPerS, err := measureLink(cfg)
	if err != nil {
		return fmt.Errorf("link calibration: %w", err)
	}
	if r.cfg.trace {
		r.set("netem.rtt_ms_observed", "ms", rttMS)
		r.set("netem.mb_per_s_observed", "MB/s", mbPerS)
	}
	wantRTT := float64(cfg.RTT.Nanoseconds()) / 1e6
	if math.Abs(rttMS-wantRTT) > 0.1*wantRTT {
		return fmt.Errorf("link calibration: observed RTT %.2f ms, configured %.2f ms", rttMS, wantRTT)
	}
	if wantBW := cfg.BandwidthBps / 1e6; wantBW > 0 && math.Abs(mbPerS-wantBW) > 0.1*wantBW {
		return fmt.Errorf("link calibration: observed %.3f MB/s, configured %.3f MB/s", mbPerS, wantBW)
	}
	return nil
}
