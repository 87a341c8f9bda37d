(** End-to-end tests of the GPU simulator: functional correctness of
    kernels run through the host runtime, plus the event counters
    (coalescing, divergence, shared-memory traffic) that drive the
    performance model. *)

open Pgpu_ir
open Pgpu_gpusim
module Descriptor = Pgpu_target.Descriptor

let ( !: ) = Alcotest.test_case

let f32 = Types.F32
let global_f32 = Types.Memref (Types.Global, f32)
let host_f32 = Types.Memref (Types.Host, f32)

let check_floats ~tol what expected actual =
  if List.length expected <> List.length actual then
    Alcotest.failf "%s: length mismatch %d vs %d" what (List.length expected)
      (List.length actual);
  List.iteri
    (fun i (e, a) ->
      if Float.abs (e -. a) > tol *. (1. +. Float.abs e) then
        Alcotest.failf "%s[%d]: expected %g, got %g" what i e a)
    (List.combine expected actual)

let vecadd_module = Kernels.vecadd_module

let run_main ?(config = Pgpu_runtime.Runtime.default_config Descriptor.a100) m args =
  Pgpu_runtime.Runtime.run config m args

let test_vecadd_functional () =
  let m = vecadd_module () in
  Verify.check_exn m;
  let n = 1000 in
  let results, st = run_main m [ Exec.UI n ] in
  let got = Pgpu_runtime.Runtime.buffer_contents (List.hd results) in
  let a = Pgpu_runtime.Runtime.rand_array 11 n and b = Pgpu_runtime.Runtime.rand_array 22 n in
  let expected = List.init n (fun i -> a.(i) +. b.(i)) in
  check_floats ~tol:1e-9 "vecadd" expected got;
  Alcotest.(check int) "one launch" 1 (List.length (Pgpu_runtime.Runtime.records st));
  Alcotest.(check bool) "composite time positive" true
    (Pgpu_runtime.Runtime.composite_seconds st > 0.)

let test_vecadd_tail_guard () =
  (* n = 1 exercises a grid of one block with 255 masked lanes *)
  let m = vecadd_module () in
  let results, _ = run_main m [ Exec.UI 1 ] in
  let got = Pgpu_runtime.Runtime.buffer_contents (List.hd results) in
  let a = Pgpu_runtime.Runtime.rand_array 11 1 and b = Pgpu_runtime.Runtime.rand_array 22 1 in
  check_floats ~tol:1e-9 "vecadd n=1" [ a.(0) +. b.(0) ] got

let test_reduce_functional () =
  let m = Kernels.reduce_module () in
  Verify.check_exn m;
  let nb = 5 in
  let results, st = run_main m [ Exec.UI nb ] in
  let got = Pgpu_runtime.Runtime.buffer_contents (List.hd results) in
  let expected = Kernels.reduce_expected nb in
  check_floats ~tol:1e-6 "reduce" expected got;
  (* shared memory traffic and barriers must have been observed *)
  let r = List.hd (Pgpu_runtime.Runtime.records st) in
  let c = r.Pgpu_runtime.Runtime.result.Exec.counters in
  Alcotest.(check bool) "barriers observed" true (c.Counters.barriers > 0.);
  Alcotest.(check bool) "shared loads observed" true (c.Counters.shared_load_req > 0.)

(** Direct launches for counter-level checks. *)
let direct_launch ?(target = Descriptor.a100) ~nblocks ~nthreads body_fn =
  let machine = Exec.create_machine target in
  let env = Exec.env_create () in
  let b = Builder.create () in
  let gb = Builder.const_i b nblocks in
  let tb = Builder.const_i b nthreads in
  ignore
    (Builder.parallel b Instr.Blocks [ gb ] (fun bb _ bivs ->
         ignore
           (Builder.parallel bb Instr.Threads [ tb ] (fun ib tpid tivs ->
                body_fn ib tpid (List.hd bivs) (List.hd tivs)))));
  let block = Builder.finish b in
  (* evaluate the leading constants on the host side *)
  let rec setup = function
    | [ (Instr.Parallel _ as p) ] -> p
    | Instr.Let (v, Instr.Const (Instr.Ci n)) :: rest ->
        Exec.bind env v (Exec.UI n);
        setup rest
    | _ -> Alcotest.fail "unexpected setup shape"
  in
  let p = setup block in
  let result = Exec.launch machine ~mode:`All ~env p in
  result

let test_coalescing () =
  let alloc = Memory.allocator () in
  let buf = Memory.alloc alloc Types.Global Types.F32 (256 * 32) in
  let mk stride =
    direct_launch ~nblocks:1 ~nthreads:256 (fun ib _ _ tid ->
        let c = Builder.const_i ib stride in
        let i = Builder.mul_ ib tid c in
        ignore (Builder.load ib (Value.fresh ~hint:"buf" global_f32) i) |> ignore)
  in
  ignore mk;
  (* cannot capture the buffer through a fresh value; bind explicitly *)
  let run stride =
    let machine = Exec.create_machine Descriptor.a100 in
    let env = Exec.env_create () in
    let bufv = Value.fresh ~hint:"buf" global_f32 in
    Exec.bind env bufv (Exec.UB buf);
    let b = Builder.create () in
    let g1 = Builder.const_i b 1 in
    let t256 = Builder.const_i b 256 in
    ignore
      (Builder.parallel b Instr.Blocks [ g1 ] (fun bb _ _ ->
           ignore
             (Builder.parallel bb Instr.Threads [ t256 ] (fun ib _ tivs ->
                  let tid = List.hd tivs in
                  let c = Builder.const_i ib stride in
                  let i = Builder.mul_ ib tid c in
                  let v = Builder.load ib bufv i in
                  Builder.store ib bufv i v))));
    let rec setup = function
      | [ (Instr.Parallel _ as p) ] -> p
      | Instr.Let (v, Instr.Const (Instr.Ci n)) :: rest ->
          Exec.bind env v (Exec.UI n);
          setup rest
      | _ -> Alcotest.fail "unexpected shape"
    in
    let p = setup (Builder.finish b) in
    (Exec.launch machine ~mode:`All ~env p).Exec.counters
  in
  let unit_stride = run 1 and strided = run 32 in
  (* 256 consecutive f32 = 32 sectors; stride-32 touches one sector per lane *)
  Alcotest.(check (float 0.1)) "coalesced load sectors" 32. unit_stride.Counters.load_sectors;
  Alcotest.(check (float 0.1)) "strided load sectors" 256. strided.Counters.load_sectors;
  Alcotest.(check (float 0.1)) "requests equal" unit_stride.Counters.global_load_req
    strided.Counters.global_load_req

let test_divergence_counter () =
  let r =
    direct_launch ~nblocks:1 ~nthreads:64 (fun ib _ _ tid ->
        let c16 = Builder.const_i ib 16 in
        let cond = Builder.cmp ib Ops.Lt tid c16 in
        ignore
          (Builder.if_ ib cond [ Types.I32 ]
             (fun b -> [ Builder.add_ b tid tid ])
             (fun b -> [ Builder.mul_ b tid tid ])))
  in
  (* warp 0 diverges (lanes 0-15 vs 16-31); warp 1 does not *)
  Alcotest.(check (float 0.1)) "one divergent warp" 1. r.Exec.counters.Counters.divergent_branches

let test_partial_warp_lanes () =
  let r =
    direct_launch ~nblocks:4 ~nthreads:16 (fun ib _ _ tid -> ignore (Builder.add_ ib tid tid))
  in
  Alcotest.(check int) "threads per block observed" 16 r.Exec.threads_per_block;
  Alcotest.(check int) "nblocks" 4 r.Exec.nblocks;
  (* each add issues 1 warp inst per block with 16 active lanes *)
  Alcotest.(check bool) "lanes counted" true (r.Exec.counters.Counters.lane_int >= 4. *. 16.)

let test_sampled_launch_scales () =
  let full =
    direct_launch ~nblocks:64 ~nthreads:32 (fun ib _ _ tid -> ignore (Builder.add_ ib tid tid))
  in
  let machine = Exec.create_machine Descriptor.a100 in
  let env = Exec.env_create () in
  let b = Builder.create () in
  let g = Builder.const_i b 64 in
  let t = Builder.const_i b 32 in
  ignore
    (Builder.parallel b Instr.Blocks [ g ] (fun bb _ _ ->
         ignore
           (Builder.parallel bb Instr.Threads [ t ] (fun ib _ tivs ->
                ignore (Builder.add_ ib (List.hd tivs) (List.hd tivs))))));
  let rec setup = function
    | [ (Instr.Parallel _ as p) ] -> p
    | Instr.Let (v, Instr.Const (Instr.Ci n)) :: rest ->
        Exec.bind env v (Exec.UI n);
        setup rest
    | _ -> Alcotest.fail "unexpected shape"
  in
  let p = setup (Builder.finish b) in
  let sampled = Exec.launch machine ~mode:(`Sample 8) ~env p in
  let rel a b = Float.abs (a -. b) /. Float.max 1. b in
  Alcotest.(check bool) "scaled warp insts match full run" true
    (rel sampled.Exec.counters.Counters.warp_insts full.Exec.counters.Counters.warp_insts < 0.05)

let test_bank_conflicts () =
  (* 32 threads reading stride-32 words hit one bank: 32 replays; the
     unit-stride pattern is conflict-free *)
  let run stride =
    let r =
      direct_launch ~nblocks:1 ~nthreads:32 (fun ib tpid _ tid ->
          ignore tpid;
          let smem = Builder.alloc_shared ib Types.F32 1024 in
          let c = Builder.const_i ib stride in
          let i = Builder.mul_ ib tid c in
          let v = Builder.load ib smem i in
          Builder.store ib smem i v)
    in
    r.Exec.counters.Counters.shared_transactions
  in
  let unit_stride = run 1 and conflicted = run 32 in
  Alcotest.(check (float 0.1)) "unit stride: 2 transactions" 2. unit_stride;
  Alcotest.(check (float 0.1)) "stride 32: 64 replayed transactions" 64. conflicted

let test_barrier_divergence_detected () =
  Alcotest.check_raises "barrier under divergence"
    (Exec.Device_error "barrier divergence: 16 of 64 lanes active") (fun () ->
      ignore
        (direct_launch ~nblocks:1 ~nthreads:64 (fun ib tpid _ tid ->
             let c16 = Builder.const_i ib 16 in
             let cond = Builder.cmp ib Ops.Lt tid c16 in
             Builder.if0 ib cond (fun bb -> Builder.barrier bb tpid))))

(* ------------------------------------------------------------------ *)
(* Differential property: compiled engine vs the tree-walker           *)
(* ------------------------------------------------------------------ *)

(** Random barrier-bearing kernels must behave identically under the
    slot-indexed compiled engine and the interpreter reference mode on
    every target class — NVIDIA and AMD launch geometries plus the
    barrier-fission CPU backend: bit-identical output buffers,
    identical event counters per launch, and the same simulated time. *)
let arb_engine_kdesc =
  let open Test_random_kernels in
  QCheck.make
    ~print:(Fmt.str "%a" pp_kdesc)
    QCheck.Gen.(
      let* d = gen_kdesc in
      let* i = gen_idx in
      (* guarantee at least one barrier so lane masks, shared memory
         and (on cpu) fission epochs are all exercised *)
      return { d with steps = To_shared i :: d.steps })

let prop_engines_agree =
  QCheck.Test.make ~name:"engines: compiled matches interp bitwise" ~count:40
    arb_engine_kdesc (fun d ->
      let m = Test_random_kernels.build_module d in
      Verify.check_exn m;
      let run target engine =
        let config =
          { (Pgpu_runtime.Runtime.default_config target) with
            Pgpu_runtime.Runtime.engine;
            jobs = 2;
          }
        in
        let results, st =
          Pgpu_runtime.Runtime.run config m [ Exec.UI d.Test_random_kernels.nblocks ]
        in
        let outputs =
          List.map
            (fun r ->
              List.map Int64.bits_of_float (Pgpu_runtime.Runtime.buffer_contents r))
            results
        in
        let counters =
          List.map
            (fun (r : Pgpu_runtime.Runtime.launch_record) ->
              r.Pgpu_runtime.Runtime.result.Exec.counters)
            (Pgpu_runtime.Runtime.records st)
        in
        (outputs, counters, Pgpu_runtime.Runtime.composite_seconds st)
      in
      List.for_all
        (fun (target : Descriptor.t) ->
          let oi, ci, ti = run target Engine.Interp in
          let oc, cc, tc = run target Engine.Compiled in
          if oi <> oc then
            QCheck.Test.fail_reportf "%s: outputs differ between engines"
              target.Descriptor.name;
          if ci <> cc then
            QCheck.Test.fail_reportf "%s: launch counters differ between engines"
              target.Descriptor.name;
          if not (Float.equal ti tc) then
            QCheck.Test.fail_reportf "%s: composite time differs: %h vs %h"
              target.Descriptor.name ti tc;
          true)
        [ Descriptor.a100; Descriptor.rx6800; Descriptor.cpu ])

(* ------------------------------------------------------------------ *)
(* Copy-on-write trial state                                           *)
(* ------------------------------------------------------------------ *)

(** Reference for [Cache.clone]: an eager deep copy of every tag row. *)
let deep_copy (c : Cache.t) =
  {
    c with
    Cache.set_data = Array.map Array.copy c.Cache.set_data;
    shared = Bytes.make c.Cache.sets '\000';
    last_line = -1;
    last_data = [||];
    last_w = 0;
  }

(** Drive [c] and its reference [r] through [ops] (an address, or -1 for
    a reset) and fail at the first hit/miss or counter disagreement. *)
let same_behaviour what (c : Cache.t) (r : Cache.t) ops =
  List.iteri
    (fun k a ->
      if a < 0 then begin
        Cache.reset c;
        Cache.reset r
      end
      else if Cache.access c a <> Cache.access r a then
        QCheck.Test.fail_reportf "%s: op %d (address %d): hit/miss differs" what k a;
      if c.Cache.hits <> r.Cache.hits || c.Cache.misses <> r.Cache.misses then
        QCheck.Test.fail_reportf "%s: op %d: counters %d/%d vs %d/%d" what k c.Cache.hits
          c.Cache.misses r.Cache.hits r.Cache.misses)
    ops

let gen_cow_case =
  QCheck.Gen.(
    let* sets = oneofl [ 1; 2; 4; 8 ] in
    let* ways = oneofl [ 1; 2; 4 ] in
    let* line = oneofl [ 16; 32; 48 ] in
    let span = 3 * sets * ways * line in
    let op = frequency [ (20, int_bound (span - 1)); (1, return (-1)) ] in
    let ops = list_size (int_range 0 60) op in
    let* warm = ops and* s1 = ops and* s2 = ops and* s3 = ops and* s4 = ops in
    return ((sets, ways, line), [ warm; s1; s2; s3; s4 ]))

let prop_cow_clone =
  QCheck.Test.make ~name:"cache: copy-on-write clones behave as deep copies" ~count:300
    (QCheck.make
       ~print:(fun ((sets, ways, line), seqs) ->
         Fmt.str "sets=%d ways=%d line=%d %a" sets ways line
           Fmt.(Dump.list (Dump.list int))
           seqs)
       gen_cow_case)
    (fun ((sets, ways, line), seqs) ->
      match seqs with
      | [ warm; s1; s2; s3; s4 ] ->
          let src = Cache.create ~size_bytes:(sets * ways * line) ~line_bytes:line ~ways in
          List.iter (fun a -> if a < 0 then Cache.reset src else ignore (Cache.access src a)) warm;
          let r0 = deep_copy src in
          let c1 = Cache.clone src and r1 = deep_copy src in
          same_behaviour "clone" c1 r1 s1;
          (* a clone of a clone, driven while its source waits *)
          let c2 = Cache.clone c1 and r2 = deep_copy r1 in
          same_behaviour "clone of a clone" c2 r2 s2;
          same_behaviour "clone after its own clone ran" c1 r1 s3;
          (* no clone write reached the source's rows *)
          Array.iteri
            (fun k d ->
              if d <> r0.Cache.set_data.(k) then
                QCheck.Test.fail_reportf "source row %d changed under its clones" k)
            src.Cache.set_data;
          same_behaviour "source after its clones" src r0 s4;
          true
      | _ -> assert false)

module P = Pgpu_core.Polygeist_gpu
module Runtime = Pgpu_runtime.Runtime

(** A live environment binding every free value of [region]: distinct
    16-element buffers for memrefs, small scalars otherwise. *)
let env_for_region region =
  let env = Exec.env_create () and alloc = Memory.allocator () in
  List.iter
    (fun (v : Value.t) ->
      let rv =
        match v.Value.ty with
        | Types.Memref (space, elt) ->
            let b = Memory.alloc alloc space elt 16 in
            Memory.fill_i b (fun i -> i + v.Value.id);
            Exec.UB b
        | ty when Types.is_float ty -> Exec.UF 1.5
        | _ -> Exec.UI 4
      in
      Exec.bind env v rv)
    (Instr.free_values region);
  env

let buf_of env (v : Value.t) =
  match Exec.lookup env v with Exec.UB b -> b | _ -> Alcotest.failf "%a is not a buffer" Value.pp v

let test_trial_env_gaussian () =
  let b = P.Rodinia.find "gaussian" in
  let c =
    P.compile ~specs:(P.specs_of_totals [ (1, 1); (2, 2) ]) ~target:Descriptor.a100
      ~source:b.P.Bench_def.source ()
  in
  let regions = ref [] in
  List.iter
    (fun (f : Instr.func) ->
      Instr.iter_deep
        (function Instr.Alternatives { regions = rs; _ } -> regions := rs @ !regions | _ -> ())
        f.Instr.body)
    c.P.modul.Instr.funcs;
  Alcotest.(check bool) "gaussian has candidates" true (!regions <> []);
  let shared = ref 0 in
  List.iter
    (fun region ->
      let written =
        match Runtime.written_memrefs region with
        | Some ws -> ws
        | None -> Alcotest.fail "a gaussian candidate falls back to copying every buffer"
      in
      Alcotest.(check bool) "a candidate writes some buffer" true (written <> []);
      let env = env_for_region region in
      let trial = Runtime.clone_trial_env ~written:(Some written) env in
      List.iter
        (fun (v : Value.t) ->
          if Types.is_memref v.Value.ty then begin
            let live = buf_of env v and priv = buf_of trial v in
            if List.exists (Value.equal v) written then begin
              Alcotest.(check bool) "written buffer is a private copy" false (live == priv);
              Alcotest.(check bool) "private copy has its own data" false
                (live.Memory.data == priv.Memory.data);
              Alcotest.(check bool) "private copy starts equal" true
                (live.Memory.data = priv.Memory.data)
            end
            else begin
              incr shared;
              Alcotest.(check bool) "read-only buffer is shared" true (live == priv)
            end
          end)
        (Instr.free_values region))
    !regions;
  (* fan1 only reads a, fan2 only reads m *)
  Alcotest.(check bool) "some read-only buffers are shared" true (!shared > 0)

let test_trial_env_select_fallback () =
  let gf = Types.Memref (Types.Global, Types.F32) in
  let c = Value.fresh ~hint:"c" Types.I1 and a = Value.fresh ~hint:"a" gf
  and b = Value.fresh ~hint:"b" gf and idx = Value.fresh ~hint:"i" Types.I32
  and x = Value.fresh ~hint:"x" Types.F32 in
  let region ~through_select =
    let bl = Builder.create () in
    let tmp = Builder.alloc bl Types.Global Types.F32 idx in
    Builder.store bl tmp idx x;
    Builder.store bl (if through_select then Builder.select bl c a b else a) idx x;
    Builder.finish bl
  in
  let env = Exec.env_create () and alloc = Memory.allocator () in
  let ba = Memory.alloc alloc Types.Global Types.F32 8
  and bb = Memory.alloc alloc Types.Global Types.F32 8 in
  List.iter2 (Exec.bind env) [ c; a; b; idx; x ] [ Exec.UI 1; Exec.UB ba; Exec.UB bb; Exec.UI 2; Exec.UF 3. ];
  (* an alias of [a] under another value *)
  let a' = Value.fresh ~hint:"a_alias" gf in
  Exec.bind env a' (Exec.UB ba);
  (* a direct store: only [a]'s buffer is copied, once, aliases included;
     the region's own allocation is not a live buffer *)
  let written = Runtime.written_memrefs (region ~through_select:false) in
  Alcotest.(check (option (list int))) "direct store writes a only" (Some [ a.Value.id ])
    (Option.map (List.map (fun (v : Value.t) -> v.Value.id)) written);
  let t = Runtime.clone_trial_env ~written env in
  Alcotest.(check bool) "a is copied" false (buf_of t a == ba);
  Alcotest.(check bool) "the alias follows the copy" true (buf_of t a' == buf_of t a);
  Alcotest.(check bool) "b is shared" true (buf_of t b == bb);
  (* through a select, the written buffer is unknown: copy them all *)
  let written = Runtime.written_memrefs (region ~through_select:true) in
  Alcotest.(check bool) "select falls back" true (written = None);
  let t = Runtime.clone_trial_env ~written env in
  Alcotest.(check bool) "a is copied" false (buf_of t a == ba);
  Alcotest.(check bool) "b is copied" false (buf_of t b == bb);
  Alcotest.(check bool) "the alias follows the copy" true (buf_of t a' == buf_of t a)

let suite =
  [
    ( "exec",
      [
        !:"vecadd functional" `Quick test_vecadd_functional;
        !:"vecadd tail guard" `Quick test_vecadd_tail_guard;
        !:"reduction with barriers" `Quick test_reduce_functional;
        !:"coalescing sectors" `Quick test_coalescing;
        !:"divergence counter" `Quick test_divergence_counter;
        !:"partial warps" `Quick test_partial_warp_lanes;
        !:"sampled launch scales counters" `Quick test_sampled_launch_scales;
        !:"shared-memory bank conflicts" `Quick test_bank_conflicts;
        !:"barrier divergence detected" `Quick test_barrier_divergence_detected;
        QCheck_alcotest.to_alcotest prop_engines_agree;
        QCheck_alcotest.to_alcotest prop_cow_clone;
        !:"trial env: gaussian shares read-only buffers" `Quick test_trial_env_gaussian;
        !:"trial env: store through a select copies every buffer" `Quick
          test_trial_env_select_fallback;
      ] );
  ]
