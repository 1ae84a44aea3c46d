package serve

import (
	"context"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"repro/internal/place"
)

// TestCheckpointWriteHoldsNoLock drains a job whose checkpoint path is a
// FIFO with a full pipe buffer, so the checkpoint write blocks until the
// test reads the FIFO. While it blocks, the job's status, the job lookup
// and the health summary must still answer: no reader waits on a
// checkpoint write. Once it ends, the job reports that the checkpoint
// could not be made durable.
func TestCheckpointWriteHoldsNoLock(t *testing.T) {
	dir := t.TempDir()
	s := New(Config{Workers: 1, QueueDepth: 4, CheckpointDir: dir})
	reached, gate := make(chan struct{}), make(chan struct{})
	job, err := s.Submit(JobRequest{
		Netlist: testNetlist(300, 4),
		Config:  place.Config{MaxIter: 100000, BeforeTransform: holdAt(1, reached, gate)},
	})
	if err != nil {
		t.Fatal(err)
	}
	<-reached

	// Fill and drain the FIFO through a raw non-blocking descriptor: a
	// write through an os.File would wait in the runtime poller instead
	// of failing with EAGAIN once the buffer is full.
	fifo := filepath.Join(dir, job.ID()+".ckpt")
	if err := syscall.Mkfifo(fifo, 0o600); err != nil {
		t.Fatal(err)
	}
	fd, err := syscall.Open(fifo, syscall.O_RDWR|syscall.O_NONBLOCK, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer syscall.Close(fd)
	chunk := make([]byte, 4096)
	for {
		_, err := syscall.Write(fd, chunk)
		if err == syscall.EAGAIN {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}

	shut := make(chan error, 1)
	go func() { shut <- s.Shutdown(context.Background()) }()
	<-job.ctx.Done()
	close(gate)
	waitGoroutine(t, "IO wait", "(*Server).runJob")
	within(t, "Job.Status", func() { job.Status() })
	within(t, "Server.Job", func() { s.Job(job.ID()) })
	within(t, "Server.Health", func() { s.Health() })

	for {
		if _, err := syscall.Read(fd, chunk); err != nil && err != syscall.EAGAIN {
			t.Fatal(err)
		}
		select {
		case err := <-shut:
			if err != nil {
				t.Fatalf("Shutdown: %v", err)
			}
			// A FIFO cannot be synced, so the checkpoint is not durable
			// and must not be published.
			if st := job.Status(); st.Checkpoint != "" || st.Error == "" {
				t.Errorf("checkpoint %q, error %q: want no checkpoint and an error", st.Checkpoint, st.Error)
			}
			return
		case <-time.After(time.Millisecond):
		}
	}
}
