package nocsvc_test

import (
	"bufio"
	"fmt"
	"net"
	"reflect"
	"testing"

	"flatnet/internal/nocsvc"
	"flatnet/nocsvc/client"
)

// TestCheckpointCloneBitIdentical takes a checkpoint of a warmed, loaded
// session and opens two clones from it. Both clones must serve an
// identical estimate sequence: a clone restores every buffer, RNG stream
// and in-flight flit, so running the same requests against either is
// bit-for-bit the same simulation.
func TestCheckpointCloneBitIdentical(t *testing.T) {
	_, addr := startServer(t, nocsvc.ServerConfig{})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	sess, err := c.OpenSession(client.OpenParams{
		Topology: "flatfly", K: 4, N: 2,
		Load: 0.25, Warmup: 300, Seed: 11, Pattern: "randperm",
	})
	if err != nil {
		t.Fatal(err)
	}
	ckpt, err := sess.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if ckpt == "" {
		t.Fatal("empty checkpoint id")
	}
	// The origin session keeps running after a checkpoint: advance it so
	// the clones demonstrably derive from the stored snapshot, not from
	// the live session's later state.
	if _, err := sess.Estimate(0, 9, 64); err != nil {
		t.Fatal(err)
	}

	var items []client.EstimateParams
	for i := 0; i < 12; i++ {
		items = append(items, client.EstimateParams{Src: i, Dst: 15 - i, Bytes: 32 + 8*i})
	}
	runClone := func() ([]client.EstimateResult, client.SessionInfo) {
		t.Helper()
		cl, err := c.CloneSession(ckpt)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close() //nolint:errcheck
		if cl.ID() == sess.ID() {
			t.Fatalf("clone reused session id %s", cl.ID())
		}
		res, err := cl.BatchEstimate(items)
		if err != nil {
			t.Fatal(err)
		}
		return res, cl.Info()
	}
	resA, infoA := runClone()
	resB, infoB := runClone()
	if !reflect.DeepEqual(resA, resB) {
		t.Fatalf("clones diverged:\nA: %+v\nB: %+v", resA, resB)
	}
	if infoA != infoB {
		t.Fatalf("clone infos differ: %+v vs %+v", infoA, infoB)
	}
	if infoA.Nodes != sess.Info().Nodes || infoA.Algorithm != sess.Info().Algorithm {
		t.Fatalf("clone info %+v does not match origin %+v", infoA, sess.Info())
	}
	// Clones skip warm-up: they start at the checkpointed cycle, which is
	// at least the origin's warm-up window.
	if infoA.WarmCycles < 300 {
		t.Fatalf("clone starts at cycle %d, checkpoint was past warm-up (300)", infoA.WarmCycles)
	}

	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Server.Checkpoints != 1 || st.Server.Clones != 2 {
		t.Fatalf("stats: %d checkpoints, %d clones; want 1, 2", st.Server.Checkpoints, st.Server.Clones)
	}
}

// TestCheckpointStoreEvicts pins the capped FIFO: past MaxCheckpoints
// the oldest checkpoint is evicted and cloning it fails with
// no_checkpoint, while the newest stays cloneable.
func TestCheckpointStoreEvicts(t *testing.T) {
	_, addr := startServer(t, nocsvc.ServerConfig{MaxCheckpoints: 2})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	sess, err := c.OpenSession(client.OpenParams{Topology: "flatfly", K: 2, N: 2, Warmup: 10})
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, 3)
	for i := range ids {
		if ids[i], err = sess.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.CloneSession(ids[0]); err == nil {
		t.Fatalf("clone of evicted checkpoint %s succeeded", ids[0])
	} else if perr, ok := err.(*client.Error); !ok || perr.Code != nocsvc.CodeNoCheckpoint {
		t.Fatalf("evicted clone error: %v", err)
	}
	cl, err := c.CloneSession(ids[2])
	if err != nil {
		t.Fatal(err)
	}
	cl.Close() //nolint:errcheck
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Server.Checkpoints != 2 {
		t.Fatalf("store holds %d checkpoints, cap is 2", st.Server.Checkpoints)
	}
}

// TestOpenPatternValidation exercises the traffic-pattern registry
// through open_session: aliases canonicalize, unknown names are
// rejected before any network is built.
func TestOpenPatternValidation(t *testing.T) {
	_, addr := startServer(t, nocsvc.ServerConfig{})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	sess, err := c.OpenSession(client.OpenParams{
		Topology: "flatfly", K: 4, N: 2, Warmup: 10, Pattern: "BC",
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := sess.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Session == nil || st.Session.Pattern != "bitcomp" {
		t.Fatalf("alias BC did not canonicalize: %+v", st.Session)
	}
	if _, err := c.OpenSession(client.OpenParams{
		Topology: "flatfly", K: 4, N: 2, Warmup: 10, Pattern: "nope",
	}); err == nil {
		t.Fatal("unknown pattern accepted")
	} else if perr, ok := err.(*client.Error); !ok || perr.Code != nocsvc.CodeBadRequest {
		t.Fatalf("unknown pattern error: %v", err)
	}
}

// TestCheckpointVerbValidation drives the new verbs' request validation
// through the wire: missing/foreign parameters and unknown ids all
// answer structured errors without disturbing the connection.
func TestCheckpointVerbValidation(t *testing.T) {
	_, addr := startServer(t, nocsvc.ServerConfig{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	rd := bufio.NewReader(conn)
	roundTrip := func(line string) nocsvc.Response {
		t.Helper()
		if _, err := fmt.Fprintf(conn, "%s\n", line); err != nil {
			t.Fatal(err)
		}
		raw, err := rd.ReadBytes('\n')
		if err != nil {
			t.Fatal(err)
		}
		resp, err := nocsvc.DecodeResponse(raw)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	if resp := roundTrip(`{"v":1,"id":1,"verb":"checkpoint_session"}`); resp.Err == nil || resp.Err.Code != nocsvc.CodeBadRequest {
		t.Fatalf("checkpoint without session: %+v", resp)
	}
	if resp := roundTrip(`{"v":1,"id":2,"verb":"checkpoint_session","session":"nope"}`); resp.Err == nil || resp.Err.Code != nocsvc.CodeNoSession {
		t.Fatalf("checkpoint of unknown session: %+v", resp)
	}
	if resp := roundTrip(`{"v":1,"id":3,"verb":"clone_session"}`); resp.Err == nil || resp.Err.Code != nocsvc.CodeBadRequest {
		t.Fatalf("clone without checkpoint: %+v", resp)
	}
	if resp := roundTrip(`{"v":1,"id":4,"verb":"clone_session","checkpoint":"c99"}`); resp.Err == nil || resp.Err.Code != nocsvc.CodeNoCheckpoint {
		t.Fatalf("clone of unknown checkpoint: %+v", resp)
	}
	if resp := roundTrip(`{"v":1,"id":5,"verb":"clone_session","checkpoint":"c1","session":"s1"}`); resp.Err == nil || resp.Err.Code != nocsvc.CodeBadRequest {
		t.Fatalf("clone with foreign session param: %+v", resp)
	}
	if resp := roundTrip(`{"v":1,"id":6,"verb":"stats","checkpoint":"c1"}`); resp.Err == nil || resp.Err.Code != nocsvc.CodeBadRequest {
		t.Fatalf("stats with foreign checkpoint param: %+v", resp)
	}
	// The connection stays healthy afterwards.
	if resp := roundTrip(`{"v":1,"id":7,"verb":"stats"}`); !resp.OK || resp.Stats == nil {
		t.Fatalf("stats after errors: %+v", resp)
	}
}

// TestCheckpointAfterSaturatedEstimate checkpoints a session whose last
// estimate ran out of its cycle budget, so the checkpoint holds that
// transfer's packets still queued and in flight. The origin and two
// clones then answer the same estimates, which are pinned: the clones
// carry the abandoned packets as ordinary traffic, and they must delay
// the later estimates exactly as the origin's tracked ones do.
func TestCheckpointAfterSaturatedEstimate(t *testing.T) {
	_, addr := startServer(t, nocsvc.ServerConfig{EstimateBudget: 48})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	sess, err := c.OpenSession(client.OpenParams{
		Topology: "flatfly", K: 4, N: 2,
		Load: 0.2, Warmup: 200, Seed: 3, Pattern: "UR",
	})
	if err != nil {
		t.Fatal(err)
	}
	sat, err := sess.Estimate(2, 13, 640)
	if err != nil {
		t.Fatal(err)
	}
	if !sat.Saturated || sat.Packets < 2 {
		t.Fatalf("estimate %+v: want a saturated multi-packet transfer", sat)
	}
	ckpt, err := sess.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	items := []client.EstimateParams{
		{Src: 2, Dst: 7, Bytes: 16}, {Src: 13, Dst: 2, Bytes: 64},
		{Src: 0, Dst: 15, Bytes: 32}, {Src: 2, Dst: 13, Bytes: 48},
		{Src: 9, Dst: 4, Bytes: 16}, {Src: 5, Dst: 10, Bytes: 128},
		{Src: 2, Dst: 1, Bytes: 16}, {Src: 14, Dst: 3, Bytes: 80},
	}
	want := []client.EstimateResult{
		{Cycles: 48, Packets: 2, Saturated: true}, {Cycles: 11, Hops: 1, Packets: 8},
		{Cycles: 6, Hops: 1, Packets: 4}, {Cycles: 8, Hops: 1, Packets: 6},
		{Cycles: 3, Hops: 1, Packets: 2}, {Cycles: 19, Hops: 1, Packets: 16},
		{Cycles: 3, Packets: 2}, {Cycles: 14, Hops: 1, Packets: 10},
	}
	answer := func(s *client.Session, who string) {
		t.Helper()
		got, err := s.BatchEstimate(items)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s answered\n%#v\nwant\n%#v", who, got, want)
		}
	}
	for i := 0; i < 2; i++ {
		cl, err := c.CloneSession(ckpt)
		if err != nil {
			t.Fatal(err)
		}
		answer(cl, fmt.Sprintf("clone %d", i))
		cl.Close() //nolint:errcheck
	}
	answer(sess, "origin")
}
