package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"time"

	"snowcat/internal/kernel"
	"snowcat/internal/pic"
	"snowcat/internal/serve"
)

// serveFlags registers the serving knobs shared by the serve and loadgen
// subcommands and maps them onto a serve.Config (loadgen applies it to
// its in-process server).
func serveFlags(fs *flag.FlagSet) func() serve.Config {
	batch := fs.Int("max-batch", 32, "max graphs coalesced from the queue into one inference batch")
	queue := fs.Int("queue", 256, "admission queue depth (full queue sheds non-waiting requests)")
	deadlineMS := fs.Int("deadline-ms", 0, "default per-request deadline in milliseconds (0 = none)")
	cache := fs.Int("cache", 64, "BaseContext cache capacity in CTIs")
	workers := parallelFlag(fs)
	return func() serve.Config {
		return serve.Config{
			MaxBatch:   *batch,
			Workers:    *workers,
			QueueDepth: *queue,
			Deadline:   time.Duration(*deadlineMS) * time.Millisecond,
			CacheSize:  *cache,
		}
	}
}

// serveModel loads the model file, or — when path is empty — builds a
// fresh untrained model over the kernel, so the serving stack can be
// exercised without a training run first.
func serveModel(k *kernel.Kernel, path string, seed uint64) (*pic.Model, error) {
	if path == "" {
		return pic.New(pic.Config{Dim: 12, Layers: 2, Seed: seed}), nil
	}
	return pic.LoadFile(path)
}

// newServerFromFlags assembles kernel, model, registry, and server. The
// server gets the kernel, so it scores /v1/predict_cti requests.
func newServerFromFlags(seed uint64, size, model string, mkConfig func() serve.Config) (*serve.Server, *kernel.Kernel, error) {
	k, _, err := kernelFromFlags(seed, size)
	if err != nil {
		return nil, nil, err
	}
	m, err := serveModel(k, model, seed+70)
	if err != nil {
		return nil, nil, err
	}
	reg := serve.NewRegistry()
	if err := reg.Load("v1", m, pic.NewTokenCache(k, m.Vocab)); err != nil {
		return nil, nil, err
	}
	if _, err := reg.Activate("v1"); err != nil {
		return nil, nil, err
	}
	cfg := mkConfig()
	cfg.Kernel = k
	return serve.New(reg, cfg), k, nil
}

func cmdServe(args []string) error {
	fs, seed := newFlagSet("serve")
	addr := fs.String("addr", "127.0.0.1:8334", "listen address")
	size := fs.String("size", "small", "kernel size preset")
	model := fs.String("model", "", "model file to serve (empty serves an untrained model)")
	duration := fs.Duration("duration", 0, "stop after this long (0 = run until interrupted)")
	mkConfig := serveFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	s, k, err := newServerFromFlags(*seed, *size, *model, mkConfig)
	if err != nil {
		return err
	}
	defer s.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	fmt.Printf("serving %s (kernel %s, %d blocks) on http://%s\n",
		s.Registry().Active().Version, k.Version, k.NumBlocks(), ln.Addr())

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt)
	defer signal.Stop(stop)
	var timeout <-chan time.Time
	if *duration > 0 {
		timeout = time.After(*duration)
	}
	select {
	case err := <-errc:
		return err
	case <-stop:
		fmt.Println("interrupt: draining")
	case <-timeout:
	}
	// Stop accepting connections, then drain the batching pipeline.
	if err := hs.Shutdown(context.Background()); err != nil {
		return err
	}
	if err := s.Close(); err != nil {
		return err
	}
	st := s.Stats()
	fmt.Printf("served %d requests (%d graphs, mean batch %.1f)\n", st.Requests, st.Graphs, st.MeanBatch)
	return nil
}
