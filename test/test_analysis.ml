(** Tests for the shared-memory race & barrier-safety analyzer.

    The static checker must stay silent on every stock kernel and
    benchmark (zero false positives at the diagnostic level we gate
    on), and must flag 100% of mechanically injected race mutants:
    dropping any barrier, or collapsing any shared-store index to a
    constant, makes a race the checker has to prove. A qcheck
    generator drives the same mutators with random picks. The dynamic
    detector is exercised on a racy kernel (conflicts reported) and a
    race-free one (silent, and bit-identical to an uninstrumented
    run). Finally, candidates rejected as racy must never materialize
    as [Alternatives] regions, so TDO can never trial them. *)

module Check = Pgpu_analysis.Check
module Report = Pgpu_analysis.Report
module Racecheck = Pgpu_gpusim.Racecheck
module Frontend = Pgpu_frontend.Frontend
module Runtime = Pgpu_runtime.Runtime
module Exec = Pgpu_gpusim.Exec
module Descriptor = Pgpu_target.Descriptor
module Pipeline = Pgpu_transforms.Pipeline
module Alternatives = Pgpu_transforms.Alternatives
module Coarsen = Pgpu_transforms.Coarsen
module Backend = Pgpu_target.Backend
module Occupancy = Pgpu_target.Occupancy
module Bench_def = Pgpu_rodinia.Bench_def
open Pgpu_ir

(* ------------------------------------------------------------------ *)
(* IR mutators                                                         *)
(* ------------------------------------------------------------------ *)

(** Bottom-up rewrite: children first, then [f] on the instruction
    itself; [f] returns a replacement sequence (possibly empty). *)
let rec map_block f blk = List.concat_map (map_instr f) blk

and map_instr f i =
  let i =
    match i with
    | Instr.If { cond; results; then_; else_ } ->
        Instr.If { cond; results; then_ = map_block f then_; else_ = map_block f else_ }
    | Instr.For { iv; lb; ub; step; iter_args; inits; results; body } ->
        Instr.For { iv; lb; ub; step; iter_args; inits; results; body = map_block f body }
    | Instr.While { iter_args; inits; results; body } ->
        Instr.While { iter_args; inits; results; body = map_block f body }
    | Instr.Parallel { pid; level; ivs; ubs; body } ->
        Instr.Parallel { pid; level; ivs; ubs; body = map_block f body }
    | Instr.Gpu_wrapper { wid; name; body } ->
        Instr.Gpu_wrapper { wid; name; body = map_block f body }
    | Instr.Alternatives { aid; descs; regions } ->
        Instr.Alternatives { aid; descs; regions = List.map (map_block f) regions }
    | i -> i
  in
  f i

let map_modul f (m : Instr.modul) =
  {
    Instr.funcs =
      List.map (fun fn -> { fn with Instr.body = map_block f fn.Instr.body }) m.Instr.funcs;
  }

(** ids of every statically allocated shared buffer in [m] *)
let shared_ids (m : Instr.modul) =
  let ids = Hashtbl.create 8 in
  let f i =
    (match i with
    | Instr.Alloc_shared { res; _ } -> Hashtbl.replace ids res.Value.id ()
    | _ -> ());
    [ i ]
  in
  ignore (map_modul f m);
  ids

let count_barriers m =
  let n = ref 0 in
  let f i =
    (match i with Instr.Barrier _ -> incr n | _ -> ());
    [ i ]
  in
  ignore (map_modul f m);
  !n

let count_shared_stores m =
  let ids = shared_ids m in
  let n = ref 0 in
  let f i =
    (match i with
    | Instr.Store { mem; _ } when Hashtbl.mem ids mem.Value.id -> incr n
    | _ -> ());
    [ i ]
  in
  ignore (map_modul f m);
  !n

(** Mutant: delete the [k]-th barrier of the module. *)
let drop_barrier k m =
  let n = ref 0 in
  map_modul
    (fun i ->
      match i with
      | Instr.Barrier _ ->
          let j = !n in
          incr n;
          if j = k then [] else [ i ]
      | i -> [ i ])
    m

(** Mutant: collapse the index of the [k]-th shared-memory store to the
    constant 0, so every thread of the block hits the same element. *)
let zero_shared_store_idx k m =
  let ids = shared_ids m in
  let n = ref 0 in
  map_modul
    (fun i ->
      match i with
      | Instr.Store { mem; idx = _; v } when Hashtbl.mem ids mem.Value.id ->
          let j = !n in
          incr n;
          if j = k then begin
            let z = Value.fresh ~hint:"mut" Types.I32 in
            [ Instr.Let (z, Instr.Const (Instr.Ci 0)); Instr.Store { mem; idx = z; v } ]
          end
          else [ i ]
      | i -> [ i ])
    m

(* ------------------------------------------------------------------ *)
(* Static checker: stock kernels are clean                             *)
(* ------------------------------------------------------------------ *)

let check_clean name m () =
  match Check.check_modul m with
  | [] -> ()
  | d :: _ -> Alcotest.failf "%s: unexpected diagnostic: %a" name Report.pp_diagnostic d

let benches = Pgpu_rodinia.Registry.all @ Pgpu_hecbench.Registry.all

let bench_clean_cases =
  List.map
    (fun (b : Bench_def.t) ->
      Alcotest.test_case (b.Bench_def.name ^ " is diagnostic-free") `Quick (fun () ->
          check_clean b.Bench_def.name (Frontend.compile_string b.Bench_def.source) ()))
    benches

(* ------------------------------------------------------------------ *)
(* The candidate corpus: every region the race gate of expand checks   *)
(* ------------------------------------------------------------------ *)

(** A coarsened, cleaned-up replica that passed every earlier gate of
    [Alternatives.expand], with the constant resolver expand checks it
    under. *)
type gated = { label : string; const_of : Value.t -> int option; region : Instr.block }

(* The gates of [Alternatives.expand] up to the race check, uncached:
   coarsen, clean up, shared memory, new spills, occupancy. *)
let gated_replicas (target : Descriptor.t) ~outer_const ~specs ~kernel region =
  let with_outer local v = match local v with Some n -> Some n | None -> outer_const v in
  let base_stats = Backend.analyze target (Alternatives.cleanup (Clone.block region)) in
  List.filter_map
    (fun spec ->
      let desc = Fmt.str "%a" Coarsen.pp_spec spec in
      let fresh = Clone.block region in
      let consts = Coarsen.const_tbl [ fresh ] in
      let const_of = with_outer (Coarsen.lookup_const consts) in
      match Coarsen.coarsen_region ~const_of spec fresh with
      | Error _ -> None
      | Ok coarsened ->
          let coarsened = Alternatives.cleanup coarsened in
          let stats = Backend.analyze target coarsened in
          if stats.Backend.static_shmem > target.Descriptor.max_shmem_per_block
             || stats.Backend.spilled > base_stats.Backend.spilled
          then None
          else begin
            Coarsen.add_consts consts [ coarsened ];
            let occ_ok =
              match Alternatives.static_block_size ~const_of coarsened with
              | None -> true
              | Some threads ->
                  Result.is_ok
                    (Occupancy.check target
                       {
                         Occupancy.threads_per_block = threads;
                         regs_per_thread = stats.Backend.regs_per_thread;
                         shmem_per_block = stats.Backend.static_shmem;
                       })
            in
            if occ_ok then Some { label = kernel ^ ":" ^ desc; const_of; region = coarsened }
            else None
          end)
    specs

(** Every replica the race gate sees when [m] is compiled for [target]
    with [specs], in compile order. *)
let gated_of_modul target ~specs ~name m =
  let m = Pipeline.scalar_pipeline m in
  let outer_const = Coarsen.const_env (List.map (fun f -> f.Instr.body) m.Instr.funcs) in
  let wrappers = ref [] in
  List.iter
    (fun (f : Instr.func) ->
      Instr.iter_deep
        (function
          | Instr.Gpu_wrapper { name = k; body; _ } -> wrappers := (k, body) :: !wrappers
          | _ -> ())
        f.Instr.body)
    m.Instr.funcs;
  List.concat_map
    (fun (k, body) -> gated_replicas target ~outer_const ~specs ~kernel:(name ^ "/" ^ k) body)
    (List.rev !wrappers)

let corpus_specs = Pgpu_core.Experiments.composite_specs

let corpus target =
  List.concat_map
    (fun (b : Bench_def.t) ->
      gated_of_modul target ~specs:corpus_specs ~name:b.Bench_def.name
        (Frontend.compile_string b.Bench_def.source))
    benches

let check_gated (g : gated) = Check.check_region ~const_of:g.const_of ~kernel:g.label g.region

(* Expand's own report agrees with the replica: a candidate reached the
   race gate iff it ended kept, racy or duplicate. *)
let reached_race_gate (c : Alternatives.candidate) =
  match c.Alternatives.decision with
  | Alternatives.Kept | Alternatives.Rejected_racy _ | Alternatives.Rejected_duplicate _ -> true
  | _ -> false

(* candidates reaching the race gate: 450 on a100, 451 on rx6800 *)
let corpus_sizes = [ (Descriptor.a100, 450); (Descriptor.rx6800, 451) ]

let test_corpus_clean () =
  List.iter
    (fun ((target : Descriptor.t), size) ->
      let name = target.Descriptor.name in
      let cands = corpus target in
      Alcotest.(check int) (name ^ " corpus size") size (List.length cands);
      let expanded =
        List.fold_left
          (fun n (b : Bench_def.t) ->
            let opts =
              { (Pipeline.default_options target) with Pipeline.coarsen_specs = corpus_specs }
            in
            let _, report = Pipeline.compile opts (Frontend.compile_string b.Bench_def.source) in
            List.fold_left
              (fun n kr -> n + List.length (List.filter reached_race_gate kr.Pipeline.candidates))
              n report.Pipeline.kernels)
          0 benches
      in
      Alcotest.(check int) (name ^ ": the race gate of expand saw as many") expanded size;
      List.iter
        (fun g ->
          match check_gated g with
          | [] -> ()
          | d :: _ ->
              Alcotest.failf "%s %s: unexpected diagnostic: %a" name g.label Report.pp_diagnostic d)
        cands)
    corpus_sizes

(* ------------------------------------------------------------------ *)
(* Static checker: every injected mutant is flagged                    *)
(* ------------------------------------------------------------------ *)

let stock = [ ("reduce", Kernels.reduce_module); ("tile_avg", Kernels.tile_avg_module) ]

let flags_mutant what mutant =
  match Report.errors (Check.check_modul mutant) with
  | [] -> Alcotest.failf "%s: mutant not flagged" what
  | _ -> ()

let test_all_mutants () =
  List.iter
    (fun (name, mk) ->
      let m = mk () in
      let nb = count_barriers m and ns = count_shared_stores m in
      Alcotest.(check bool) (name ^ " has barriers") true (nb > 0);
      Alcotest.(check bool) (name ^ " has shared stores") true (ns > 0);
      for k = 0 to nb - 1 do
        flags_mutant (Fmt.str "%s: drop barrier %d" name k) (drop_barrier k (mk ()))
      done;
      for k = 0 to ns - 1 do
        flags_mutant
          (Fmt.str "%s: zero shared-store index %d" name k)
          (zero_shared_store_idx k (mk ()))
      done)
    stock

(** Every mutant of the stock kernels with its full sorted report, one
    [== name] header per mutant. *)
let mutants_report () =
  List.concat_map
    (fun (name, mk) ->
      let m = mk () in
      List.init (count_barriers m) (fun k ->
          (Fmt.str "%s: drop barrier %d" name k, drop_barrier k (mk ())))
      @ List.init (count_shared_stores m) (fun k ->
            (Fmt.str "%s: zero shared-store index %d" name k, zero_shared_store_idx k (mk ()))))
    stock
  |> List.map (fun (what, mutant) ->
         Fmt.str "== %s\n%s" what (Report.to_string (Report.sort (Check.check_modul mutant))))
  |> String.concat ""

let prop_mutants_flagged =
  QCheck.Test.make ~name:"random mutants of race-free kernels are flagged" ~count:40
    QCheck.(triple (int_range 0 1) (int_range 0 1) small_nat)
    (fun (which, kind, k) ->
      let _, mk = List.nth stock which in
      let m = mk () in
      let mutant =
        if kind = 0 then drop_barrier (k mod count_barriers m) m
        else zero_shared_store_idx (k mod count_shared_stores m) m
      in
      Report.errors (Check.check_modul mutant) <> [])

(* ------------------------------------------------------------------ *)
(* Racy candidates never reach TDO                                     *)
(* ------------------------------------------------------------------ *)

let racy_src =
  {|
__global__ void blur(float* in, float* out, int n) {
  __shared__ float tile[256];
  int t = threadIdx.x;
  int i = blockIdx.x * 256 + t;
  tile[t] = in[i];
  out[i] = 0.5f * tile[t] + 0.5f * tile[255 - t];
}

float* main(int nb) {
  int n = nb * 256;
  float* hout = (float*)malloc(n * sizeof(float));
  float* din; float* dout;
  cudaMalloc((void**)&din, n * sizeof(float));
  cudaMalloc((void**)&dout, n * sizeof(float));
  float* hin = (float*)malloc(n * sizeof(float));
  fill_rand(hin, 3);
  cudaMemcpy(din, hin, n * sizeof(float), cudaMemcpyHostToDevice);
  blur<<<nb, 256>>>(din, dout, n);
  cudaMemcpy(hout, dout, n * sizeof(float), cudaMemcpyDeviceToHost);
  return hout;
}
|}

let count_alternatives m =
  let n = ref 0 in
  let f i =
    (match i with Instr.Alternatives _ -> incr n | _ -> ());
    [ i ]
  in
  ignore (map_modul f m);
  !n

let test_racy_never_reaches_tdo () =
  let m = Frontend.compile_string racy_src in
  let opts =
    {
      (Pipeline.default_options Descriptor.a100) with
      Pipeline.coarsen_specs = Pipeline.specs_of_totals [ (1, 1); (2, 1); (1, 2) ];
    }
  in
  let m', report = Pipeline.compile opts m in
  let candidates = List.concat_map (fun kr -> kr.Pipeline.candidates) report.Pipeline.kernels in
  Alcotest.(check bool) "candidates were expanded" true (candidates <> []);
  List.iter
    (fun (c : Alternatives.candidate) ->
      match c.Alternatives.decision with
      | Alternatives.Rejected_racy _ -> ()
      | d ->
          Alcotest.failf "candidate [%s] of a racy kernel was %a" c.Alternatives.desc
            Alternatives.pp_decision d)
    candidates;
  (* with every candidate rejected, no Alternatives region exists for
     TDO to trial: the runtime falls back to the cleaned baseline *)
  Alcotest.(check int) "no alternatives region" 0 (count_alternatives m');
  let config = { (Runtime.default_config Descriptor.a100) with Runtime.tune = true } in
  let results, _ = Runtime.run config m' [ Exec.UI 2 ] in
  Alcotest.(check int) "racy module still runs" 1 (List.length results)

(* ------------------------------------------------------------------ *)
(* Dynamic race detector                                               *)
(* ------------------------------------------------------------------ *)

let run_with rc m args =
  let config = { (Runtime.default_config Descriptor.a100) with Runtime.racecheck = rc } in
  let results, st = Runtime.run config m (List.map (fun n -> Exec.UI n) args) in
  (List.map Runtime.buffer_contents results, Runtime.composite_seconds st)

let test_dynamic_flags_racy () =
  let m = Frontend.compile_string racy_src in
  let m', _ = Pipeline.compile (Pipeline.default_options Descriptor.a100) m in
  let rc = Racecheck.create () in
  ignore (run_with (Some rc) m' [ 2 ]);
  Alcotest.(check bool) "conflicts detected" true (Racecheck.total_conflicts rc > 0);
  List.iter
    (fun (c : Racecheck.conflict) ->
      Alcotest.(check bool) "distinct lanes" true (c.Racecheck.lane1 <> c.Racecheck.lane2))
    (Racecheck.conflicts rc);
  let diags = Check.diagnostics_of_racecheck rc in
  Alcotest.(check bool) "diagnostics are errors" true (Report.has_errors diags)

let test_dynamic_silent_and_free_on_racefree () =
  let m = Kernels.reduce_module () in
  let m', _ = Pipeline.compile (Pipeline.default_options Descriptor.a100) m in
  let out_plain, t_plain = run_with None m' [ 6 ] in
  let rc = Racecheck.create () in
  let out_checked, t_checked = run_with (Some rc) m' [ 6 ] in
  Alcotest.(check int) "no conflicts" 0 (Racecheck.total_conflicts rc);
  Alcotest.(check (list (list (float 0.)))) "same outputs" out_plain out_checked;
  Alcotest.(check (float 0.)) "same composite time" t_plain t_checked

(* ------------------------------------------------------------------ *)
(* Golden text report on the racy fixture                              *)
(* ------------------------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_golden_report () =
  (* cwd is _build/default/test under `dune runtest`, the workspace
     root under `dune exec test/main.exe` *)
  let path =
    List.find Sys.file_exists [ "../examples/racy.cu"; "examples/racy.cu" ]
  in
  let src = read_file path in
  let m = Frontend.compile_string src in
  let m', _ = Pipeline.compile (Pipeline.default_options Descriptor.a100) m in
  let report = Report.to_string (Report.sort (Check.check_modul m')) in
  let expected =
    "error[barrier-divergence] bad_reduce: barrier under thread-dependent control flow: \
     threads of one block may not all reach it\n\
     error[shared-race] blur: possible read-write race on shared buffer tile between 'load \
     tile[-t + 255]' and 'store tile[t]' (barrier epoch 0): distinct threads can touch the \
     same element\n\
     2 error(s), 0 warning(s)\n"
  in
  Alcotest.(check string) "pgpu check report" expected report

let test_mutants_golden () =
  (* generated before check results were memoized; never re-pinned *)
  let path =
    List.find Sys.file_exists [ "analysis_mutants.golden"; "test/analysis_mutants.golden" ]
  in
  Alcotest.(check string) "mutant reports" (read_file path) (mutants_report ())

(* ------------------------------------------------------------------ *)
(* The pair-verdict memo changes no result                             *)
(* ------------------------------------------------------------------ *)

module Static_check = Pgpu_analysis.Static_check
module Pool = Pgpu_support.Pool
module Rk = Test_random_kernels

let memo_specs = Pipeline.specs_of_totals [ (1, 1); (2, 1); (1, 2); (2, 2); (4, 1) ]

(* a random kernel with at least one barrier *)
let arb_barrier_kdesc =
  let with_barrier (d : Rk.kdesc) =
    if List.exists (function Rk.To_shared _ -> true | _ -> false) d.Rk.steps then d
    else { d with Rk.steps = d.Rk.steps @ [ Rk.To_shared Rk.Rev ] }
  in
  QCheck.make ~print:(Fmt.str "%a" Rk.pp_kdesc) (QCheck.Gen.map with_barrier Rk.gen_kdesc)

(** Builders of the kernel and each of its mutants. *)
let variants d =
  let mk () = Rk.build_module d in
  let m = mk () in
  mk
  :: List.init (count_barriers m) (fun k () -> drop_barrier k (mk ()))
  @ List.init (count_shared_stores m) (fun k () -> zero_shared_store_idx k (mk ()))

(** Every check the variants of [d] give rise to: the module, and each
    replica expand's race gate would see. *)
let memo_subjects d =
  List.concat_map
    (fun mk ->
      let m = mk () in
      (fun () -> Check.check_modul m)
      :: List.map
           (fun g () -> check_gated g)
           (gated_of_modul Descriptor.a100 ~specs:memo_specs ~name:"rand" (mk ())))
    (variants d)

let corpus_a100 = lazy (corpus Descriptor.a100)

let prop_memo_transparent =
  QCheck.Test.make ~name:"verdict memo: cold, warm and reversed checks agree" ~count:6
    arb_barrier_kdesc (fun d ->
      let subjects = memo_subjects d in
      let run l = List.map (fun f -> f ()) l in
      Static_check.clear_verdicts ();
      let cold = run subjects in
      Static_check.clear_verdicts ();
      let reversed = List.rev (run (List.rev subjects)) in
      let warm = run subjects in
      Static_check.clear_verdicts ();
      List.iter (fun g -> ignore (check_gated g)) (Lazy.force corpus_a100);
      let after_corpus = run subjects in
      cold = reversed && cold = warm && cold = after_corpus)

let prop_expand_jobs_parity =
  QCheck.Test.make ~name:"verdict memo: expand decides alike at jobs 1 and 2" ~count:6
    arb_barrier_kdesc (fun d ->
      let decisions jobs =
        Static_check.clear_verdicts ();
        List.concat_map
          (fun mk ->
            let opts =
              {
                (Pipeline.default_options Descriptor.a100) with
                Pipeline.coarsen_specs = memo_specs;
                jobs;
              }
            in
            let _, report = Pipeline.compile opts (mk ()) in
            List.concat_map
              (fun kr ->
                List.map
                  (fun (c : Alternatives.candidate) ->
                    (c.Alternatives.desc, Fmt.str "%a" Alternatives.pp_decision c.Alternatives.decision))
                  kr.Pipeline.candidates)
              report.Pipeline.kernels)
          (variants d)
      in
      Pool.override_domain_count (Some 2);
      Fun.protect
        ~finally:(fun () -> Pool.override_domain_count None)
        (fun () -> decisions 1 = decisions 2))

(* ------------------------------------------------------------------ *)
(* Affine: a proof of infeasibility is never wrong                     *)
(* ------------------------------------------------------------------ *)

module Affine = Pgpu_analysis.Affine

(* three bounded symbols, up to two equalities and three inequalities
   with small coefficients: small enough to enumerate every point *)
let arb_system =
  let open QCheck.Gen in
  let gen =
    let* bounds = list_repeat 3 (pair (int_range (-3) 1) (int_range 0 4)) in
    let syms =
      List.mapi
        (fun i (lo, w) ->
          { Affine.sid = i + 1; name = Fmt.str "x%d" i; kind = Affine.Shared; lo = Some lo; hi = Some (lo + w) })
        bounds
    in
    let row =
      let* c = int_range (-6) 6 in
      let* ks = list_repeat 3 (int_range (-3) 3) in
      return
        (List.fold_left2
           (fun a s k -> Affine.add a (Affine.scale k (Affine.of_sym s)))
           (Affine.const c) syms ks)
    in
    let* eqs = list_size (int_range 0 2) row in
    let* ges = list_size (int_range 0 3) row in
    return (syms, { Affine.eqs; ges })
  in
  let print (syms, (sys : Affine.system)) =
    Fmt.str "%a | eqs %a | ges %a"
      Fmt.(list ~sep:sp (fun ppf (s : Affine.sym) ->
               pf ppf "%s in [%d, %d]" s.Affine.name (Option.get s.Affine.lo) (Option.get s.Affine.hi)))
      syms
      Fmt.(list ~sep:semi Affine.pp) sys.Affine.eqs
      Fmt.(list ~sep:semi Affine.pp) sys.Affine.ges
  in
  QCheck.make ~print gen

let has_integer_point syms (sys : Affine.system) =
  let eval env (a : Affine.t) =
    List.fold_left (fun acc ((s : Affine.sym), c) -> acc + (c * List.assoc s.Affine.sid env)) a.Affine.const a.Affine.terms
  in
  let rec points env = function
    | [] ->
        List.for_all (fun e -> eval env e = 0) sys.Affine.eqs
        && List.for_all (fun g -> eval env g >= 0) sys.Affine.ges
    | (s : Affine.sym) :: rest ->
        let rec from v =
          v <= Option.get s.Affine.hi && (points ((s.Affine.sid, v) :: env) rest || from (v + 1))
        in
        from (Option.get s.Affine.lo)
  in
  points [] syms

let prop_infeasible_sound =
  QCheck.Test.make ~name:"affine: systems proven infeasible have no integer point" ~count:1000
    arb_system (fun (syms, sys) -> not (Affine.infeasible sys && has_integer_point syms sys))

(* nw's collision index: a leading negative, non-unit coefficient keeps
   its sign *)
let test_affine_pp () =
  let sym sid name = { Affine.sid; name; kind = Affine.Shared; lo = None; hi = None } in
  let t = Affine.of_sym (sym 1 "t") and m = Affine.of_sym (sym 2 "m") in
  let e = Affine.add_const 1 (Affine.add (Affine.scale (-16) t) (Affine.scale 17 m)) in
  Alcotest.(check string) "-16*t + 17*m + 1" "-16*t + 17*m + 1" (Fmt.str "%a" Affine.pp e);
  let e' = Affine.sub (Affine.scale (-3) t) (Affine.add_const 2 (Affine.scale 5 m)) in
  Alcotest.(check string) "-3*t - 5*m - 2" "-3*t - 5*m - 2" (Fmt.str "%a" Affine.pp e');
  Alcotest.(check string) "-t - m" "-t - m" (Fmt.str "%a" Affine.pp (Affine.neg (Affine.add t m)))

let suite =
  [
    ( "analysis",
      [
        Alcotest.test_case "stock reduce is diagnostic-free" `Quick
          (check_clean "reduce" (Kernels.reduce_module ()));
        Alcotest.test_case "stock tile_avg is diagnostic-free" `Quick
          (check_clean "tile_avg" (Kernels.tile_avg_module ()));
        Alcotest.test_case "stock vecadd is diagnostic-free" `Quick
          (check_clean "vecadd" (Kernels.vecadd_module ()));
        Alcotest.test_case "every injected mutant is flagged" `Quick test_all_mutants;
        Alcotest.test_case "affine pp keeps a leading negative coefficient" `Quick test_affine_pp;
        Alcotest.test_case "golden reports of every stock mutant" `Quick test_mutants_golden;
        Alcotest.test_case "every corpus candidate is diagnostic-free" `Quick test_corpus_clean;
        QCheck_alcotest.to_alcotest prop_memo_transparent;
        QCheck_alcotest.to_alcotest prop_expand_jobs_parity;
        QCheck_alcotest.to_alcotest prop_infeasible_sound;
        QCheck_alcotest.to_alcotest prop_mutants_flagged;
        Alcotest.test_case "racy candidates never reach TDO" `Quick
          test_racy_never_reaches_tdo;
        Alcotest.test_case "dynamic detector flags the racy kernel" `Quick
          test_dynamic_flags_racy;
        Alcotest.test_case "dynamic detector silent and free on race-free" `Quick
          test_dynamic_silent_and_free_on_racefree;
        Alcotest.test_case "golden text report for examples/racy.cu" `Quick
          test_golden_report;
      ]
      @ bench_clean_cases );
  ]
