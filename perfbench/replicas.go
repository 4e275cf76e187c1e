package main

import (
	"fmt"
	"io"
	"net/http"
	"os"

	"gyokit/internal/relation"
	"gyokit/internal/repl"
	"gyokit/internal/storage"
)

// replicas is the replication pair of ingest-mixed's traced pass: a
// leader that takes each replayed write, and a follower brought to the
// leader's tip after every write by calling the replication layers
// directly. The ingest store checkpoints, and a checkpoint may truncate
// the WAL segment a follower is still reading, so the pair's leader is
// a node of its own with checkpoints off, seeded with the ingest
// store's state when the pass starts.
type replicas struct {
	leader, follower *node
	hc               *http.Client
	cur              storage.Cursor // the follower's applied cursor
}

func newReplicas(db *relation.Database, hc *http.Client) (*replicas, error) {
	r := &replicas{hc: hc}
	dir, err := scratchDir("leader")
	if err != nil {
		return nil, err
	}
	if r.leader, err = openNode(dir, storage.Options{CheckpointBytes: -1}); err != nil {
		_ = os.RemoveAll(dir)
		return nil, err
	}
	batch := storage.CreatesFor(db.D)
	for i, rel := range db.Rels {
		batch = append(batch, storage.Insert(i, db.D.Rels[i].Card(), rel.Tuples()))
	}
	if _, _, err := r.leader.e.Apply(batch...); err != nil {
		r.close()
		return nil, err
	}
	le := r.leader.e
	r.leader.serve(func(mux *http.ServeMux) { mux.Handle("/v1/repl/", repl.NewStreamer(le, r.leader.reg, nil)) })
	if dir, err = scratchDir("follower"); err != nil {
		r.close()
		return nil, err
	}
	if err := repl.Bootstrap(dir, r.leader.ts.URL, hc, nil); err != nil {
		_ = os.RemoveAll(dir)
		r.close()
		return nil, err
	}
	st, ok, err := repl.LoadState(dir)
	if err == nil && !ok {
		err = fmt.Errorf("bootstrap left no replica state in %s", dir)
	}
	if err == nil {
		r.cur = st.Cursor()
		r.follower, err = openNode(dir, storage.Options{})
	}
	if err != nil {
		_ = os.RemoveAll(dir)
		r.close()
		return nil, err
	}
	r.follower.e.SetReadOnly(true)
	return r, nil
}

// write applies m on the leader, then brings the follower to the
// leader's tip through the feed endpoint, Store.ReadWAL, frame decode
// and Engine.ApplyReplica.
func (r *replicas) write(tr *tracer, req, parent int, m storage.Mutation) error {
	if _, _, err := r.leader.e.Apply(m); err != nil {
		return err
	}
	for {
		s := tr.begin("repl.fetch", "repl", req, parent)
		resp, err := r.hc.Get(fmt.Sprintf("%s%s?seg=%d&off=%d&wait=0s", r.leader.ts.URL, repl.WALPath, r.cur.Seg, r.cur.Off))
		if err == nil {
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if err == nil && resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("feed at %v: %s", r.cur, resp.Status)
			}
		}
		tr.end(s)
		if err != nil {
			return err
		}
		s = tr.begin("repl.read_wal", "repl", req, parent)
		win, err := r.leader.store.ReadWAL(r.cur, 0)
		tr.end(s)
		if err != nil {
			return err
		}
		s = tr.begin("repl.decode", "repl", req, parent)
		payloads, consumed := storage.SplitFrames(win.Frames)
		batches := make([][]storage.Mutation, len(payloads))
		for i, pl := range payloads {
			if batches[i], err = storage.DecodeBatch(pl); err != nil {
				break
			}
		}
		tr.end(s)
		if err != nil {
			return err
		}
		if consumed != len(win.Frames) {
			return fmt.Errorf("torn WAL window at %v", r.cur)
		}
		for i, muts := range batches {
			after := storage.Cursor{Seg: r.cur.Seg, Off: r.cur.Off + storage.FrameOverhead + int64(len(payloads[i]))}
			s = tr.begin("repl.apply", "repl", req, parent)
			_, _, err = r.follower.e.ApplyReplica(append(muts, storage.CursorMark(after))...)
			tr.end(s)
			if err != nil {
				return err
			}
			tr.count("repl.records", 1)
			tr.count("repl.bytes", float64(storage.FrameOverhead+len(payloads[i])))
			r.cur = after
		}
		r.cur = win.Next
		if r.cur == win.Tip {
			return nil
		}
	}
}

func (r *replicas) verify() error {
	if err := sameDatabase(r.follower.e.Snapshot(), r.leader.e.Snapshot()); err != nil {
		return fmt.Errorf("follower state: %w", err)
	}
	return nil
}

func (r *replicas) close() {
	r.hc.CloseIdleConnections()
	if r.follower != nil {
		r.follower.close()
	}
	if r.leader != nil {
		r.leader.close()
	}
}
