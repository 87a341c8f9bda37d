(** One pass of a benchmark workload, in a fresh process.

    Usage: [pbworker.exe WORKLOAD SEED TRACE OBS_DIR [setup-only]]

    Sets up (pool spawn at [--jobs 2], committed quick baseline), then
    runs every job of the workload once, in an order shuffled by SEED.
    A job is one program on one target with a fresh memory-only cache:
    compile, and on the tuned workloads a tuned run from a cold TDO
    cache, a history append under OBS_DIR and a comparison with the
    committed baseline. With TRACE = 1 the compile is driven layer by
    layer, each [Alternatives.expand] call is replayed step by step,
    the tuned run is repeated warm on the same cache, and every layer
    call is recorded as a span. Prints one JSON object on stdout.
    Times are [bechamel.monotonic_clock] nanoseconds. *)

module P = Pgpu_core.Polygeist_gpu
module E = Pgpu_core.Experiments
module Json = Pgpu_trace.Json
module Instr = Pgpu_ir.Instr
module Clone = Pgpu_ir.Clone
module Verify = Pgpu_ir.Verify
module Value = Pgpu_ir.Value
module T = Pgpu_transforms
module Descriptor = Pgpu_target.Descriptor
module Bench_def = Pgpu_rodinia.Bench_def
module Cache = Pgpu_cache.Cache
module Pool = Pgpu_support.Pool
module History = Pgpu_obs.History
module Baseline = Pgpu_obs.Baseline

let span = Spans.with_span
let now = Spans.now

type workload = {
  programs : Bench_def.t list;
  targets : Descriptor.t list;
  specs : T.Coarsen.spec list;
  tuned : bool;
  jobs : int;
}

let workload = function
  | "compile-sweep" ->
      {
        programs = P.Rodinia.all @ P.Hecbench.all;
        targets = [ Descriptor.a100; Descriptor.rx6800 ];
        specs = E.composite_specs;
        tuned = false;
        jobs = 1;
      }
  | "tune-gpu" ->
      {
        programs = E.quick_benches ();
        targets = [ Descriptor.a100 ];
        specs = E.obs_specs;
        tuned = true;
        jobs = 1;
      }
  | "retarget-cpu" ->
      {
        programs = E.quick_benches ();
        targets = [ Descriptor.cpu ];
        specs = E.obs_specs;
        tuned = true;
        jobs = 2;
      }
  | w -> failwith ("unknown workload " ^ w)

let shuffle seed l =
  let a = Array.of_list l in
  let rng = Random.State.make [| seed |] in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let op_count (m : Instr.modul) =
  let n = ref 0 in
  List.iter (fun f -> Instr.iter_deep (fun _ -> incr n) f.Instr.body) m.Instr.funcs;
  !n

(* ------------------------------------------------------------------ *)
(* Traced compile: Pipeline.compile, one layer call at a time          *)
(* ------------------------------------------------------------------ *)

type expansion = {
  region : Instr.block;  (** the kernel region as [expand] received it *)
  outer_const : Value.t -> int option;
  candidates : T.Alternatives.candidate list;
}

let kept_descs cands =
  List.filter_map
    (fun (c : T.Alternatives.candidate) ->
      if c.decision = T.Alternatives.Kept then Some c.desc else None)
    cands

(* The same walk as [Pipeline.expand_kernels], with a span around
   each [Alternatives.expand] call. *)
let expand_kernels w ~cache target (m : Instr.modul) =
  let reports = ref [] and expansions = ref [] in
  let outer_const = T.Coarsen.const_env (List.map (fun f -> f.Instr.body) m.Instr.funcs) in
  let rec go_block b = List.map go_instr b
  and go_instr (i : Instr.instr) =
    match i with
    | Instr.Gpu_wrapper { wid; name; body } ->
        let region = Clone.block body in
        let body', candidates =
          span "alternatives.expand" (fun () ->
              T.Alternatives.expand target ~cache ~jobs:w.jobs ~outer_const ~specs:w.specs body)
        in
        reports := { T.Pipeline.kernel = name; wid; candidates } :: !reports;
        expansions := { region; outer_const; candidates } :: !expansions;
        Instr.Gpu_wrapper { wid; name; body = body' }
    | Instr.If ({ then_; else_; _ } as r) ->
        Instr.If { r with then_ = go_block then_; else_ = go_block else_ }
    | Instr.For ({ body; _ } as r) -> Instr.For { r with body = go_block body }
    | Instr.While ({ body; _ } as r) -> Instr.While { r with body = go_block body }
    | i -> i
  in
  let funcs = List.map (fun f -> { f with Instr.body = go_block f.Instr.body }) m.Instr.funcs in
  ({ Instr.funcs }, List.rev !reports, List.rev !expansions)

let traced_compile w ~cache target source =
  let verify m = span "ir.verify" (fun () -> Verify.check_exn m) in
  let pass name run m = span ("transforms." ^ name) (fun () -> run m) in
  let m = span "frontend" (fun () -> P.Frontend.compile_string source) in
  verify m;
  let m =
    m
    |> pass "canonicalize" T.Canonicalize.run_modul
    |> pass "cse" T.Cse.run_modul |> pass "licm" T.Licm.run_modul |> pass "cse" T.Cse.run_modul
    |> pass "dce" T.Dce.run_modul
    |> pass "barrier_elim" T.Barrier_elim.run_modul
  in
  verify m;
  let ops_scalar = op_count m in
  let m, kernels, expansions = expand_kernels w ~cache target m in
  verify m;
  ({ P.target; modul = m; report = { T.Pipeline.kernels } }, expansions, ops_scalar, op_count m)

(* Replay one [expand] call through its public pieces, uncached, and
   return the kept descs it reaches. Mirrors the decision order of
   [Alternatives.expand]: coarsen, cleanup, backend analysis
   (shared memory, new spills), occupancy, static race check, then
   structural deduplication of the survivors. *)
let replay target specs (x : expansion) =
  let with_outer local v = match local v with Some n -> Some n | None -> x.outer_const v in
  let cleanup r = span "alternatives.cleanup" (fun () -> T.Alternatives.cleanup r) in
  let analyze r = span "target.analyze" (fun () -> P.Backend.analyze target r) in
  let base_stats = analyze (cleanup (Clone.block x.region)) in
  let static_block_size ~const_of region =
    let r = ref None in
    Instr.iter_deep
      (function
        | Instr.Parallel { level = Instr.Threads; ubs; _ } ->
            let dims = List.map const_of ubs in
            if List.for_all Option.is_some dims then
              r := Some (List.fold_left (fun acc d -> acc * Option.get d) 1 dims)
        | _ -> ())
      region;
    !r
  in
  let eval spec =
    let desc = Fmt.str "%a" T.Coarsen.pp_spec spec in
    let fresh = Clone.block x.region in
    let consts = T.Coarsen.const_tbl [ fresh ] in
    let const_of = with_outer (T.Coarsen.lookup_const consts) in
    match span "alternatives.coarsen" (fun () -> T.Coarsen.coarsen_region ~const_of spec fresh) with
    | Error _ -> None
    | Ok coarsened ->
        let coarsened = cleanup coarsened in
        let stats = analyze coarsened in
        if stats.P.Backend.static_shmem > target.Descriptor.max_shmem_per_block then None
        else if stats.P.Backend.spilled > base_stats.P.Backend.spilled then None
        else begin
          T.Coarsen.add_consts consts [ coarsened ];
          let occ_ok =
            match static_block_size ~const_of coarsened with
            | None -> true
            | Some threads ->
                span "target.occupancy" (fun () ->
                    Result.is_ok
                      (P.Occupancy.check target
                         {
                           P.Occupancy.threads_per_block = threads;
                           regs_per_thread = stats.P.Backend.regs_per_thread;
                           shmem_per_block = stats.P.Backend.static_shmem;
                         }))
          in
          let racy () =
            span "analysis.check" (fun () ->
                P.Report.has_errors (P.Check.check_region ~const_of ~kernel:desc coarsened))
          in
          if occ_ok && not (racy ()) then Some (desc, coarsened) else None
        end
  in
  let survivors = List.filter_map eval specs in
  let seen = ref [] in
  List.filter_map
    (fun (desc, r) ->
      let h = Instr.hash_block r in
      if List.exists (fun (h', r') -> h = h' && Instr.equal_block r r') !seen then None
      else begin
        seen := (h, r) :: !seen;
        Some desc
      end)
    survivors

(* ------------------------------------------------------------------ *)
(* Jobs                                                                *)
(* ------------------------------------------------------------------ *)

let module_hash (m : Instr.modul) =
  String.concat ";"
    (List.map (fun f -> Fmt.str "%s:%x" f.Instr.fname (Instr.hash_block ~closed:true f.Instr.body)) m.Instr.funcs)

let float_bits f = Printf.sprintf "%016Lx" (Int64.bits_of_float f)

let digest parts = Digest.to_hex (Digest.string (String.concat "|" parts))

(* the exact bits of every output, as a string to compare and digest *)
let output_bits (r : P.run_result) =
  let buf = Buffer.create 4096 in
  List.iter
    (fun l ->
      List.iter (fun f -> Buffer.add_int64_le buf (Int64.bits_of_float f)) l;
      Buffer.add_char buf '|')
    r.P.outputs;
  Buffer.contents buf

let choices (r : P.run_result) =
  String.concat ","
    (List.map
       (fun (l : P.Runtime.launch_record) ->
         Fmt.str "%s=%s" l.P.Runtime.kernel
           (match l.P.Runtime.alternative with Some a -> string_of_int a | None -> "-"))
       r.P.records)

let sum_records f (r : P.run_result) = List.fold_left (fun acc l -> acc +. f l) 0. r.P.records
let warp_insts = sum_records (fun l -> l.P.Runtime.result.P.Exec.counters.P.Counters.warp_insts)
let blocks = sum_records (fun l -> float_of_int l.P.Runtime.result.P.Exec.nblocks)

let tdo cache =
  let h, m, _ = Cache.ns_stats cache "tdo" in
  (h, m)

let check_reference (b : Bench_def.t) (r : P.run_result) =
  let expected = b.Bench_def.reference b.Bench_def.args in
  let got = Array.of_list (List.hd r.P.outputs) in
  if Array.length got <> Array.length expected then
    failwith (Fmt.str "%s: %d outputs, expected %d" b.name (Array.length got) (Array.length expected));
  Array.iteri
    (fun i e ->
      let a = got.(i) in
      if Float.abs (e -. a) > b.Bench_def.tolerance *. (1. +. Float.abs e) then
        failwith (Fmt.str "%s: output %d is %g, reference %g" b.name i a e))
    expected

type verdicts = { mutable unchanged : int; mutable improved : int; mutable regressed : int; mutable added : int }

let run_job w ~trace ~baseline ~obs_dir ~verdicts idx ((b : Bench_def.t), (target : Descriptor.t)) =
  Spans.current_job := idx;
  let fields = ref [] in
  let add k v = fields := (k, v) :: !fields in
  let addf k f = add k (Json.Float f) and addi k i = add k (Json.Int i) in
  let failures = ref [] in
  let check ok what = if not ok then failures := what :: !failures in
  (* job_ns sums the program's own steps; the benchmark's checks in
     between are not timed *)
  let job_ns = ref 0 in
  let timed key f =
    let t = now () in
    let r = f () in
    let d = now () - t in
    job_ns := !job_ns + d;
    addi key d;
    r
  in
  let cache = Cache.create () in
  let mh0, mm0 = T.Alternatives.memo_counters () in
  (try
     span "job" (fun () ->
         let c, expansions =
           timed "compile_ns" @@ fun () ->
           span "compile" (fun () ->
               if not trace then
                 (P.compile ~specs:w.specs ~cache ~jobs:w.jobs ~target ~source:b.source (), [])
               else begin
                 let c, expansions, ops_scalar, ops_expanded =
                   traced_compile w ~cache target b.source
                 in
                 addi "ops_scalar" ops_scalar;
                 addi "ops_expanded" ops_expanded;
                 (c, expansions)
               end)
         in
         let mh1, mm1 = T.Alternatives.memo_counters () in
         let sh, sm, _ = Cache.ns_stats cache "stats" in
         addi "memo_hits" (mh1 - mh0 + sh);
         addi "memo_misses" (mm1 - mm0 + sm);
         let cands = List.concat_map (fun k -> k.T.Pipeline.candidates) c.P.report.T.Pipeline.kernels in
         let count p = List.length (List.filter (fun (c : T.Alternatives.candidate) -> p c.decision) cands) in
         addi "candidates" (List.length cands);
         addi "kept" (count (( = ) T.Alternatives.Kept));
         addi "rejected_racy" (count (function T.Alternatives.Rejected_racy _ -> true | _ -> false));
         addi "rejected_duplicate"
           (count (function T.Alternatives.Rejected_duplicate _ -> true | _ -> false));
         let kept_same =
           span "alternatives.replay" (fun () ->
               List.for_all (fun x -> replay target w.specs x = kept_descs x.candidates) expansions)
         in
         check kept_same "replayed expansion kept a different set";
         let digest_parts = [ module_hash c.P.modul; String.concat "," (kept_descs cands) ] in
         if not w.tuned then add "digest" (Json.Str (digest digest_parts))
         else begin
           let r =
             timed "run_ns" @@ fun () ->
             span "runtime.run_cold" (fun () ->
                 P.run ~tune:true ~jobs:w.jobs ~cache c ~args:b.Bench_def.args)
           in
           (* the cache is fresh, so these are the cold run's lookups *)
           let cold_hits, cold_misses = tdo cache in
           addi "searches" cold_misses;
           addi "launches" (List.length r.P.records);
           addf "warp_insts" (warp_insts r);
           addf "blocks" (blocks r);
           addf "composite_s" r.P.composite_seconds;
           add "composite_bits" (Json.Str (float_bits r.P.composite_seconds));
           (try check_reference b r with Failure m -> check false m);
           add "digest"
             (Json.Str
                (digest
                   (digest_parts @ [ output_bits r; float_bits r.P.composite_seconds; choices r ])));
           if trace then begin
             let tw = now () in
             let warm =
               span "runtime.run_warm" (fun () ->
                   P.run ~tune:true ~jobs:w.jobs ~cache c ~args:b.Bench_def.args)
             in
             addi "warm_ns" (now () - tw);
             let hits, misses = tdo cache in
             addi "warm_hits" (hits - cold_hits);
             addf "warm_warp_insts" (warp_insts warm);
             (* a launch signature seen twice in the cold run is one
                search and one hit; warm, every lookup hits *)
             check
               (misses = cold_misses && hits - cold_hits = cold_hits + cold_misses)
               (Fmt.str "warm run: %d TDO hits, %d misses after a cold run of %d hits, %d misses"
                  (hits - cold_hits) (misses - cold_misses) cold_hits cold_misses);
             check (output_bits warm = output_bits r) "warm outputs differ from the cold run";
             check (choices warm = choices r) "warm TDO choices differ from the cold run";
             (* simulated time is expected to repeat too; a difference is
                reported as a count, not as a failed job *)
             add "warm_composite_same"
               (Json.Bool (Float.equal warm.P.composite_seconds r.P.composite_seconds))
           end;
           let host_seconds = float_of_int !job_ns /. 1e9 in
           let entries =
             timed "append_ns" @@ fun () ->
             span "obs.append" (fun () ->
                 let entries =
                   History.entries_of_run ~host_seconds ~jobs:w.jobs
                     ~bench:b.name ~config:"tdo" ~target ~composite_seconds:r.P.composite_seconds
                     r.P.records
                 in
                 History.append ~dir:obs_dir entries;
                 entries)
           in
           let cmp =
             timed "compare_ns" @@ fun () ->
             span "obs.compare" (fun () -> Baseline.compare_runs baseline entries)
           in
           List.iter
             (fun (c : Baseline.comparison) ->
               match c.verdict with
               | Baseline.Unchanged -> verdicts.unchanged <- verdicts.unchanged + 1
               | Baseline.Improved -> verdicts.improved <- verdicts.improved + 1
               | Baseline.Regressed -> verdicts.regressed <- verdicts.regressed + 1)
             cmp.Baseline.comparisons;
           verdicts.added <- verdicts.added + List.length cmp.Baseline.added
         end)
   with e -> check false (Printexc.to_string e));
  addi "job_ns" !job_ns;
  add "errors" (Json.List (List.rev_map (fun m -> Json.Str m) !failures));
  Json.Obj
    (("bench", Json.Str b.name) :: ("target", Json.Str target.Descriptor.name) :: List.rev !fields)

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

let () =
  let t_main = now () in
  let name, seed, trace, obs_dir, setup_only =
    match Array.to_list Sys.argv with
    | [ _; w; s; t; d ] -> (w, int_of_string s, t = "1", d, false)
    | [ _; w; s; t; d; "setup-only" ] -> (w, int_of_string s, t = "1", d, true)
    | _ ->
        prerr_endline "usage: pbworker.exe WORKLOAD SEED TRACE OBS_DIR [setup-only]";
        exit 2
  in
  let w = workload name in
  (* setup: what a CLI user pays before the first program *)
  let tp = now () in
  if w.jobs > 1 then Pool.run (Pool.get ()) ~jobs:w.jobs w.jobs (fun ~slot:_ _ -> ());
  let pool_spawn_ns = now () - tp in
  let baseline =
    if not w.tuned then { Baseline.name = "none"; rev = ""; entries = [] }
    else
      match Baseline.load "bench/baselines/quick.json" with
      | Ok b -> b
      | Error m -> failwith ("cannot load bench/baselines/quick.json: " ^ m)
  in
  let jobs =
    shuffle seed (List.concat_map (fun b -> List.map (fun t -> (b, t)) w.targets) w.programs)
  in
  let t_first = now () in
  let verdicts = { unchanged = 0; improved = 0; regressed = 0; added = 0 } in
  let results =
    if setup_only then []
    else begin
      Spans.recording := trace;
      let r = List.mapi (run_job w ~trace ~baseline ~obs_dir ~verdicts) jobs in
      Spans.recording := false;
      r
    end
  in
  let t_end = now () in
  let gc = Gc.quick_stat () in
  let out =
    Json.Obj
      [
        ("workload", Json.Str name);
        ("seed", Json.Int seed);
        ("trace", Json.Bool trace);
        ("rev", Json.Str (History.git_rev ()));
        ("jobs", Json.Int w.jobs);
        ("effective_jobs", Json.Int (Pool.effective_jobs w.jobs));
        ("pool_size", Json.Int (Pool.size (Pool.get ())));
        ("t_main_ns", Json.Int t_main);
        ("t_first_job_ns", Json.Int t_first);
        ("t_end_ns", Json.Int t_end);
        ("pool_spawn_ms", Json.Float (float_of_int pool_spawn_ns /. 1e6));
        ( "verdicts",
          Json.Obj
            [
              ("unchanged", Json.Int verdicts.unchanged);
              ("improved", Json.Int verdicts.improved);
              ("regressed", Json.Int verdicts.regressed);
              ("added", Json.Int verdicts.added);
            ] );
        ( "gc",
          Json.Obj
            [
              ("minor_words", Json.Float gc.Gc.minor_words);
              ("promoted_words", Json.Float gc.Gc.promoted_words);
              ("major_collections", Json.Int gc.Gc.major_collections);
              ("top_heap_words", Json.Int gc.Gc.top_heap_words);
            ] );
        ("results", Json.List results);
        ("spans", Spans.to_json ());
      ]
  in
  print_string (Json.to_string out);
  print_newline ()
