(** Host-side runtime: interprets the host portion of a compiled
    module, launches kernels on the GPU simulator, accounts composite
    time (host logic + transfers + kernel time, the paper's "composite
    measurement"), and implements the timing-driven optimization that
    picks the best [Alternatives] region per launch site
    (Section VI). *)

open Pgpu_ir
open Pgpu_gpusim
module Descriptor = Pgpu_target.Descriptor
module Backend = Pgpu_target.Backend
module Tracer = Pgpu_trace.Tracer
module Json = Pgpu_trace.Json
module Cache = Pgpu_cache.Cache
module Fission = Pgpu_transforms.Fission
module Cpu_exec = Pgpu_cpu.Cpu_exec
module Cpu_timing = Pgpu_cpu.Cpu_timing

let src = Logs.Src.create "pgpu.runtime" ~doc:"Polygeist-GPU host runtime"

module Log = (val Logs.src_log src : Logs.LOG)

type launch_record = {
  kernel : string;
  wid : int;
  alternative : int option;  (** which alternatives region produced this launch *)
  result : Exec.launch_result;
  stats : Backend.kernel_stats;
  breakdown : Timing.breakdown;
  bottleneck : Bottleneck.t;  (** attribution over [breakdown] + counters *)
  seconds : float;
}

type config = {
  target : Descriptor.t;
  functional : bool;
      (** execute every block of every launch — outputs are exact; when
          false, large grids are sampled and only timing is meaningful *)
  sample_blocks : int;  (** blocks executed per launch when sampling *)
  jobs : int;
      (** host OCaml domains (from the persistent {!Pgpu_support.Pool})
          used by the CPU backend's chunked block execution, by the
          GPU simulator's sharded launches and by the TDO trials, which
          always run on cloned machines. Results are bit-identical for
          every value of [jobs]; tracing or an attached race detector
          only makes committed GPU launches unsharded. *)
  tune : bool;  (** enable timing-driven selection of alternatives *)
  fixed_choice : int;  (** alternatives region used when [tune] is false *)
  host_op_cost : float;  (** seconds charged per interpreted host instruction *)
  memcpy_overhead : float;  (** fixed seconds per cudaMemcpy *)
  seed : int;
  tracer : Tracer.t;
      (** launch/memcpy/TDO telemetry sink, timestamped in simulated
          composite time; [Tracer.disabled] = off *)
  cache : Cache.t;
      (** persistent TDO cache: committed choices are stored by
          (kernel hash, target, launch signature, alternative descs),
          so warm runs skip trial execution while reproducing the cold
          run's choices; [Cache.disabled] = off *)
  racecheck : Racecheck.t option;
      (** dynamic shared-memory race detector attached to the simulator
          for the whole run; [None] (the default) costs nothing *)
  engine : Engine.t;
      (** kernel execution engine: [Compiled] (the default) lowers each
          launch site once to slot-indexed closure kernels; [Interp] is
          the tree-walking reference *)
}

let default_config target =
  {
    target;
    functional = true;
    sample_blocks = 24;
    jobs = 1;
    tune = false;
    fixed_choice = 0;
    host_op_cost = 2e-9;
    memcpy_overhead = 10e-6;
    seed = 0x5eed;
    tracer = Tracer.disabled;
    cache = Cache.disabled;
    racecheck = None;
    engine = Engine.default;
  }

type state = {
  config : config;
  machine : Exec.machine;
  env : Exec.env;
  mutable records : launch_record list;
  mutable composite : float;
  mutable trial : bool;  (** inside a TDO trial: sample + don't record *)
  choices : (int * string, int) Hashtbl.t;
      (** (alternatives id, launch signature) -> chosen region. The
          signature buckets the integer inputs of the launch site by
          magnitude, so sites whose grids shrink across a host loop
          (e.g. gaussian, lud, nw) are re-tuned when the scale changes
          but not on every iteration. *)
  freevars_cache : (int, Value.t list) Hashtbl.t;  (** wrapper id -> free values *)
  stats_cache : (int * int, Backend.kernel_stats) Hashtbl.t;
  khash_cache : (int, int) Hashtbl.t;
      (** wrapper id -> closed structural hash of its body, so the
          persistent TDO key is computed once per launch site *)
  fission_cache : (int * int * int list, Instr.block option) Hashtbl.t;
      (** (wrapper id, alternative) -> barrier-fissioned region for the
          CPU backend; [None] records that fission was refused and the
          site runs through the lockstep interpreter instead *)
  compiled_cache : (Instr.instr, Compile.t) Cache.Memo.t;
      (** structural-hash-memoized slot-indexed kernels; sound across
          cloned regions because [Instr.equal_block] requires free
          values (the kernel arguments a compiled kernel captures) to
          be identical on both sides *)
}

let create config =
  {
    config;
    machine =
      (let m = Exec.create_machine config.target in
       m.Exec.racecheck <- config.racecheck;
       m);
    env = Exec.env_create ();
    records = [];
    composite = 0.;
    trial = false;
    choices = Hashtbl.create 8;
    freevars_cache = Hashtbl.create 8;
    stats_cache = Hashtbl.create 8;
    khash_cache = Hashtbl.create 8;
    fission_cache = Hashtbl.create 8;
    compiled_cache = Cache.Memo.create ();
  }

exception Host_error of string

let host_fail fmt = Fmt.kstr (fun s -> raise (Host_error s)) fmt

let charge st seconds = if not st.trial then st.composite <- st.composite +. seconds

(* trace timestamps are simulated composite time, in microseconds (the
   unit of the Chrome trace-event format) *)
let ticks st = st.composite *. 1e6

(* ------------------------------------------------------------------ *)
(* Scalar host evaluation                                              *)
(* ------------------------------------------------------------------ *)

let lookup st v = Exec.lookup st.env v
let bind st v rv = Exec.bind st.env v rv

let as_int st v = match lookup st v with Exec.UI x -> x | Exec.UF x -> int_of_float x | _ -> host_fail "expected host scalar int %a" Value.pp v

let as_float st v =
  match lookup st v with
  | Exec.UF x -> x
  | Exec.UI x -> float_of_int x
  | _ -> host_fail "expected host scalar float %a" Value.pp v

let as_buf st v = match lookup st v with Exec.UB b -> b | _ -> host_fail "expected buffer %a" Value.pp v

let eval_host_expr st (res : Value.t) (e : Instr.expr) : Exec.rv =
  let ty = res.Value.ty in
  match e with
  | Instr.Const (Instr.Ci n) -> Exec.UI n
  | Instr.Const (Instr.Cf f) -> Exec.UF f
  | Instr.Binop (op, a, b) ->
      if Types.is_float ty then Exec.UF (Ops.eval_float_binop op (as_float st a) (as_float st b))
      else Exec.UI (Ops.eval_int_binop op (as_int st a) (as_int st b))
  | Instr.Unop (op, a) ->
      if Types.is_float ty then Exec.UF (Ops.eval_float_unop op (as_float st a))
      else Exec.UI (Ops.eval_int_unop op (as_int st a))
  | Instr.Cmp (op, a, b) ->
      let r =
        if Types.is_float a.Value.ty then Ops.eval_float_cmp op (as_float st a) (as_float st b)
        else Ops.eval_int_cmp op (as_int st a) (as_int st b)
      in
      Exec.UI (if r then 1 else 0)
  | Instr.Select (c, a, b) -> if as_int st c <> 0 then lookup st a else lookup st b
  | Instr.Cast a -> (
      match (Types.is_float ty, lookup st a) with
      | true, Exec.UI x -> Exec.UF (float_of_int x)
      | true, (Exec.UF _ as v) -> v
      | false, Exec.UF x -> Exec.UI (int_of_float x)
      | false, (Exec.UI _ as v) -> v
      | _, v -> v)
  | Instr.Load { mem; idx } ->
      let b = as_buf st mem and i = as_int st idx in
      if Types.is_float (Types.elem mem.Value.ty) then Exec.UF (Memory.get_f b i)
      else Exec.UI (Memory.get_i b i)

(* ------------------------------------------------------------------ *)
(* Intrinsics                                                          *)
(* ------------------------------------------------------------------ *)

(** Deterministic input generation shared with the CPU reference
    implementations: the contents of a buffer filled by
    [fill_rand(buf, seed)] depend only on the seed and length. *)
let rand_array seed n =
  let rng = Pgpu_support.Rng.create seed in
  Array.init n (fun _ -> Pgpu_support.Rng.float rng)

let rand_int_array seed bound n =
  let rng = Pgpu_support.Rng.create seed in
  Array.init n (fun _ -> Pgpu_support.Rng.int rng bound)

let eval_intrinsic st (results : Value.t list) name (args : Value.t list) =
  match (name, args) with
  | "fill_rand", [ buf; seed ] ->
      let b = as_buf st buf in
      let data = rand_array (as_int st seed) b.Memory.len in
      Memory.fill_f b (fun i -> data.(i))
  | "fill_rand_range", [ buf; seed; lo; hi ] ->
      let b = as_buf st buf in
      let lo = as_float st lo and hi = as_float st hi in
      let data = rand_array (as_int st seed) b.Memory.len in
      Memory.fill_f b (fun i -> lo +. ((hi -. lo) *. data.(i)))
  | "fill_int_rand", [ buf; seed; bound ] ->
      let b = as_buf st buf in
      let data = rand_int_array (as_int st seed) (as_int st bound) b.Memory.len in
      Memory.fill_i b (fun i -> data.(i))
  | "fill_const", [ buf; c ] ->
      let b = as_buf st buf in
      if Types.is_float b.Memory.elt then Memory.fill_f b (fun _ -> as_float st c)
      else Memory.fill_i b (fun _ -> as_int st c)
  | "fill_seq", [ buf ] ->
      let b = as_buf st buf in
      Memory.fill_i b (fun i -> i)
  | "print_i32", [ v ] -> Logs.app (fun m -> m "%d" (as_int st v))
  | "print_f32", [ v ] -> Logs.app (fun m -> m "%g" (as_float st v))
  | _ ->
      host_fail "unknown intrinsic %S with %d args and %d results" name (List.length args)
        (List.length results)

(* ------------------------------------------------------------------ *)
(* Private trial state                                                 *)
(* ------------------------------------------------------------------ *)

(** The memrefs a TDO trial of [region] can write through: [Store]
    targets, [Memcpy] destinations and buffer arguments of intrinsics
    (the [fill_*] generators), counting only free values of the region —
    a buffer the region allocates itself ([Alloc], [Alloc_shared]) is
    new and private to the trial. [None] when a written memref is
    defined inside the region some other way (a [Select], an [If] or
    loop result, a region argument): which buffer it names is then
    unknown, so every buffer must be treated as written. *)
let written_memrefs (region : Instr.block) : Value.t list option =
  let defined = Value.Tbl.create 64 and fresh = Value.Tbl.create 8 in
  Instr.iter_deep
    (fun i ->
      (match i with
      | Instr.Alloc { res; _ } | Instr.Alloc_shared { res; _ } -> Value.Tbl.replace fresh res ()
      | _ -> ());
      List.iter (fun v -> Value.Tbl.replace defined v ()) (Instr.defs i);
      List.iter
        (fun (args, _) -> List.iter (fun v -> Value.Tbl.replace defined v ()) args)
        (Instr.regions i))
    region;
  let written = Value.Tbl.create 8 and unknown = ref false in
  let write (v : Value.t) =
    if Value.Tbl.mem fresh v then ()
    else if Value.Tbl.mem defined v then unknown := true
    else Value.Tbl.replace written v ()
  in
  Instr.iter_deep
    (fun i ->
      match i with
      | Instr.Store { mem; _ } -> write mem
      | Instr.Memcpy { dst; _ } -> write dst
      | Instr.Intrinsic { args; _ } ->
          List.iter (fun (v : Value.t) -> if Types.is_memref v.Value.ty then write v) args
      | _ -> ())
    region;
  if !unknown then None
  else Some (List.sort Value.compare (Value.Tbl.fold (fun v () acc -> v :: acc) written []))

(** A TDO trial's private environment: a copy of [env] in which every
    buffer the trial can write (the buffers [written] is bound to, or
    all buffers when [written] is [None]) is deep-copied once,
    deduplicated by buffer id so aliases stay aliases. Every other
    binding is shared with [env]: read-only buffers are physically the
    same, so [env] must not change while the trial runs ([trial_times]
    runs trials to completion before the live state moves on). The
    trial's functional writes and host-prelude bindings never reach the
    live data or environment. *)
let clone_trial_env ~(written : Value.t list option) (env : Exec.env) : Exec.env =
  let copy = Hashtbl.copy env in
  let writable =
    match written with
    | None -> fun _ -> true
    | Some vs ->
        let ids = Hashtbl.create 8 in
        List.iter
          (fun (v : Value.t) ->
            match Hashtbl.find_opt env v.Value.id with
            | Some (Exec.UB b) -> Hashtbl.replace ids b.Memory.id ()
            | Some (Exec.VB bs) -> Array.iter (fun b -> Hashtbl.replace ids b.Memory.id ()) bs
            | _ -> ())
          vs;
        fun (b : Memory.buf) -> Hashtbl.mem ids b.Memory.id
  in
  let cloned = Hashtbl.create 16 in
  let clone_buf (b : Memory.buf) =
    if not (writable b) then b
    else
      match Hashtbl.find_opt cloned b.Memory.id with
      | Some b' -> b'
      | None ->
          let data =
            match b.Memory.data with
            | Memory.I a -> Memory.I (Array.copy a)
            | Memory.F a -> Memory.F (Array.copy a)
          in
          let b' = { b with Memory.data } in
          Hashtbl.replace cloned b.Memory.id b';
          b'
  in
  Hashtbl.iter
    (fun k rv ->
      match rv with
      | Exec.UB b when writable b -> Hashtbl.replace copy k (Exec.UB (clone_buf b))
      | Exec.VB bs when Array.exists writable bs ->
          Hashtbl.replace copy k (Exec.VB (Array.map clone_buf bs))
      | _ -> ())
    env;
  copy

(** Whether a candidate region holds a nested launch site
    ([gpu_wrapper] or [alternatives]): such a site tunes through the
    shared choice tables mid-trial, so its search runs trials in
    order on the calling domain. *)
let has_nested_site region =
  let nested = ref false in
  Instr.iter_deep
    (fun i ->
      match i with Instr.Gpu_wrapper _ | Instr.Alternatives _ -> nested := true | _ -> ())
    region;
  !nested

(* ------------------------------------------------------------------ *)
(* Kernel launches                                                     *)
(* ------------------------------------------------------------------ *)

(** Decide the per-thread shared-memory pressure threshold above which
    the AMD backend demotes shared memory to global (the nw behaviour
    of Section VII-D2). *)
let amd_shared_offload_threshold = 96 (* bytes of shared memory per thread *)

let kernel_stats st ~wid ~alt region =
  let key = (wid, alt) in
  match Hashtbl.find_opt st.stats_cache key with
  | Some s -> s
  | None ->
      let s = Backend.analyze st.config.target region in
      Hashtbl.replace st.stats_cache key s;
      s

(** The CPU backend replaces the lockstep launch path when the target
    is a CPU and no dynamic race detector is attached (the detector's
    hooks live in the single-machine lockstep interpreter, so a race
    check forces the fallback path). *)
let cpu_mode st =
  st.config.target.Descriptor.kind = Descriptor.Cpu && st.config.racecheck = None

(** Domains available to a simulator launch. Tracing hooks observe
    per-launch event order, so an enabled tracer forces sequential
    launches (the racecheck fallback lives inside [Exec.launch]
    itself). *)
let launch_jobs st = if Tracer.enabled st.config.tracer then 1 else st.config.jobs

(** Slot-indexed compilation of a launch site's grid-level parallel,
    memoized in the content-addressed store on the region's structural
    hash. TDO trials, the committed re-execution and host-loop
    relaunches of the same site all reuse one compiled kernel. *)
let compiled_kernel st (i : Instr.instr) : Compile.t =
  Cache.Memo.find_or_add st.compiled_cache ~hash:(Instr.hash_block [ i ])
    ~equal:(fun a b -> Instr.equal_block [ a ] [ b ])
    i
    (fun () -> Compile.compile i)

(** Barrier-fission a kernel region for CPU execution, memoized per
    launch site. A refusal (synchronizing [While], thread-dependent
    interchange operand, ...) is also memoized: the region then runs
    through the lockstep interpreter, which is always correct.

    Thread extents are usually host-computed rather than literal in
    the kernel region, so fission resolves them through the live
    environment; the memo key carries the resolved extents, making a
    relaunch with different block dimensions re-lower (with correctly
    re-sized scratch) instead of replaying a stale region. *)
let env_const st (v : Value.t) =
  match Hashtbl.find_opt st.env v.Value.id with Some (Exec.UI n) -> Some n | _ -> None

let thread_extents st (region : Instr.block) =
  let acc = ref [] in
  Instr.iter_deep
    (fun i ->
      match i with
      | Instr.Parallel { level = Instr.Threads; ubs; _ } ->
          List.iter
            (fun u -> acc := Option.value ~default:(-1) (env_const st u) :: !acc)
            ubs
      | _ -> ())
    region;
  List.rev !acc

let cpu_lowered st ~wid ~alt (region : Instr.block) =
  let key = (wid, alt, thread_extents st region) in
  match Hashtbl.find_opt st.fission_cache key with
  | Some (Some r) -> r
  | Some None -> region
  | None -> (
      match Fission.lower_region ~const_of_ext:(env_const st) region with
      | Ok { Fission.region = r; stats } ->
          Log.debug (fun m ->
              m "fission: wrapper %d alt %d: %d epoch(s), %d expanded, %d recomputed, %d hoisted"
                wid alt stats.Fission.epochs stats.Fission.expanded stats.Fission.recomputed
                stats.Fission.hoisted);
          Tracer.instant_at st.config.tracer ~cat:"cpu" ~ts:(ticks st)
            ~args:
              [
                ("wid", Json.Int wid);
                ("alternative", if alt >= 0 then Json.Int alt else Json.Null);
                ("epochs", Json.Int stats.Fission.epochs);
                ("expanded", Json.Int stats.Fission.expanded);
                ("recomputed", Json.Int stats.Fission.recomputed);
                ("hoisted", Json.Int stats.Fission.hoisted);
              ]
            "cpu:fission";
          Hashtbl.replace st.fission_cache key (Some r);
          r
      | Error msg ->
          Log.debug (fun m -> m "fission: wrapper %d alt %d refused (%s); lockstep fallback" wid alt msg);
          Hashtbl.replace st.fission_cache key None;
          region)

(** Execute one kernel region (the selected alternatives region or the
    plain wrapper body): leading host instructions are evaluated, each
    grid-level parallel is launched. Returns the summed estimated
    seconds of the launches, which is what a TDO trial measures. *)
let rec exec_kernel_region st ~name ~wid ~alt (region : Instr.block) : float =
  let region = if cpu_mode st then cpu_lowered st ~wid ~alt region else region in
  let stats = kernel_stats st ~wid ~alt region in
  List.fold_left
    (fun seconds i ->
      match i with
      | Instr.Parallel { level = Instr.Blocks; _ } ->
          let mode : Exec.mode =
            if st.trial || not st.config.functional then `Sample st.config.sample_blocks else `All
          in
          (* trials measure without the demotion; only the committed
             launch applies it *)
          let offload =
            match st.config.target.Descriptor.vendor with
            | Descriptor.Amd when not st.trial ->
                let tb =
                  match Backend.find_threads_body region with
                  | Some _ -> Exec.block_dims_of st.env region |> List.fold_left ( * ) 1
                  | None -> 1
                in
                tb > 0 && stats.Backend.static_shmem / max 1 tb > amd_shared_offload_threshold
            | Descriptor.Amd | Descriptor.Nvidia | Descriptor.Generic -> false
          in
          let shmem =
            if offload then 0 (* demoted: no occupancy pressure from shared memory *)
            else stats.Backend.static_shmem
          in
          let demand =
            {
              Timing.regs_per_thread = stats.Backend.regs_per_thread;
              shmem_per_block = shmem;
              ilp = stats.Backend.ilp;
              mlp = stats.Backend.mlp;
            }
          in
          let result, breakdown =
            if cpu_mode st then begin
              let compiled =
                match st.config.engine with
                | Engine.Compiled -> Some (compiled_kernel st i)
                | Engine.Interp -> None
              in
              let cres =
                Cpu_exec.launch st.config.target ?compiled ~jobs:st.config.jobs ~mode
                  ~env:st.env i
              in
              let result = cres.Cpu_exec.result in
              ( result,
                Cpu_timing.estimate st.config.target ~demand
                  ~vector_fraction:cres.Cpu_exec.vector_fraction result )
            end
            else begin
              st.machine.Exec.shared_as_global <- offload;
              let result =
                match st.config.engine with
                | Engine.Compiled ->
                    Compile.launch ~jobs:(launch_jobs st) st.machine ~mode ~env:st.env
                      (compiled_kernel st i)
                | Engine.Interp -> Exec.launch ~jobs:(launch_jobs st) st.machine ~mode ~env:st.env i
              in
              st.machine.Exec.shared_as_global <- false;
              (result, Timing.estimate st.config.target ~demand result)
            end
          in
          let t0 = ticks st in
          charge st breakdown.Timing.seconds;
          if not st.trial then begin
            Tracer.span_at st.config.tracer ~cat:"kernel" ~ts:t0
              ~dur:(breakdown.Timing.seconds *. 1e6)
              ~args:
                [
                  ("kernel", Json.Str name);
                  ("alternative", if alt >= 0 then Json.Int alt else Json.Null);
                  ("nblocks", Json.Int result.Exec.nblocks);
                  ("threads_per_block", Json.Int result.Exec.threads_per_block);
                  ("seconds", Json.Float breakdown.Timing.seconds);
                  ( "occupancy",
                    Json.Float breakdown.Timing.occupancy.Pgpu_target.Occupancy.occupancy );
                ]
              ("kernel:" ^ name);
            let bottleneck =
              Bottleneck.classify ~kind:st.config.target.Descriptor.kind
                result.Exec.counters breakdown
            in
            Tracer.instant_at st.config.tracer ~cat:"bottleneck" ~ts:t0
              ~args:
                [
                  ("kernel", Json.Str name);
                  ("label", Json.Str (Bottleneck.label_name bottleneck.Bottleneck.label));
                  ("limiter", Json.Str bottleneck.Bottleneck.limiter);
                  ("headroom", Json.Float bottleneck.Bottleneck.headroom);
                ]
              ("bottleneck:" ^ name);
            st.records <-
              {
                kernel = name;
                wid;
                alternative = (if alt >= 0 then Some alt else None);
                result;
                stats;
                breakdown;
                bottleneck;
                seconds = breakdown.Timing.seconds;
              }
              :: st.records
          end;
          seconds +. breakdown.Timing.seconds
      | _ ->
          exec_host_instr st i;
          seconds)
    0. region

(** Magnitude-bucketed signature of a launch site's integer inputs:
    the timing-driven optimization re-tunes a site when the scale of
    its launch configuration changes. *)
and launch_signature st ~wid (body : Instr.block) =
  let frees =
    match Hashtbl.find_opt st.freevars_cache wid with
    | Some f -> f
    | None ->
        let f =
          Instr.free_values body
          |> List.sort Value.compare
        in
        Hashtbl.replace st.freevars_cache wid f;
        f
  in
  let buf = Buffer.create 16 in
  List.iter
    (fun v ->
      match Exec.lookup st.env v with
      | Exec.UI n ->
          Buffer.add_string buf (string_of_int (Pgpu_support.Util.ilog2 (abs n + 1)));
          Buffer.add_char buf '.'
      | _ -> Buffer.add_char buf '_')
    frees;
  Buffer.contents buf

(** Persistent TDO cache key for a launch site: the closed structural
    hash of the wrapper body (stable across processes, memoized per
    wrapper id) joined with the target name, the launch signature and
    the alternative descriptions. Every alternatives region computes
    the same result, so even a hash collision could only ever affect
    which (correct) version runs. *)
and tdo_cache_key st ~wid ~signature (descs : string list) (body : Instr.block) =
  if not (Cache.enabled st.config.cache) then None
  else
    let h =
      match Hashtbl.find_opt st.khash_cache wid with
      | Some h -> h
      | None ->
          let h = Instr.hash_block ~closed:true body in
          Hashtbl.replace st.khash_cache wid h;
          h
    in
    Some
      (Fmt.str "%x/%s/%s/%s" h st.config.target.Descriptor.name signature
         (String.concat ";" descs))

and cached_choice st ckey n =
  match ckey with
  | None -> None
  | Some key -> (
      match Cache.find st.config.cache ~ns:"tdo" key with
      | Some j -> (
          match Json.member "choice" j with
          | Some (Json.Int k) when k >= 0 && k < n ->
              let seconds =
                match Json.member "seconds" j with Some (Json.Float s) -> s | _ -> 0.
              in
              Some (k, seconds)
          | _ -> None)
      | None -> None)

(** Timing-driven optimization: measure every region of an
    [Alternatives] op once per launch signature (sampled, on private
    copies of the machine and buffers) and commit to the fastest
    feasible one. Regions that are infeasible on the target are
    skipped, which subsumes the static shared-memory pruning at
    runtime. A choice found in the persistent cache is committed
    directly, without trials — the warm run replays the cold run's
    decision. *)
and choose_alternative st ~name ~wid ~signature ?ckey (aid : int) (descs : string list) regions =
  match Hashtbl.find_opt st.choices (aid, signature) with
  | Some k -> k
  | None ->
      let k =
        if not st.config.tune then min st.config.fixed_choice (List.length regions - 1)
        else begin
          match cached_choice st ckey (List.length regions) with
          | Some (k, seconds) ->
              Log.debug (fun m ->
                  m "TDO: kernel %s chose alternative %d (%s) from cache" name k
                    (List.nth descs k));
              Tracer.instant_at st.config.tracer ~cat:"tdo" ~ts:(ticks st)
                ~args:
                  [
                    ("kernel", Json.Str name);
                    ("signature", Json.Str signature);
                    ("alternative", Json.Int k);
                    ("spec", Json.Str (List.nth descs k));
                    ("seconds", Json.Float seconds);
                    ("cached", Json.Bool true);
                  ]
                "tdo:choice";
              k
          | None -> begin
          let times = trial_times st ~name ~wid regions in
          Array.iteri
            (fun k t ->
              Tracer.instant_at st.config.tracer ~cat:"tdo" ~ts:(ticks st)
                ~args:
                  [
                    ("kernel", Json.Str name);
                    ("alternative", Json.Int k);
                    ("spec", Json.Str (List.nth descs k));
                    ("seconds", Json.Float t);
                    ("feasible", Json.Bool (Float.is_finite t));
                  ]
                "tdo:trial")
            times;
          (* stable argmin — strictly-less in index order — so the
             committed choice is identical however trials were
             scheduled, in order or across domains *)
          let best = ref (-1) and best_t = ref infinity in
          Array.iteri
            (fun k t ->
              if t < !best_t then begin
                best := k;
                best_t := t
              end)
            times;
          if !best < 0 then host_fail "no feasible alternative for kernel %s" name;
          Log.debug (fun m ->
              m "TDO: kernel %s chose alternative %d (%s), %.3g s" name !best
                (List.nth descs !best) !best_t);
          Tracer.instant_at st.config.tracer ~cat:"tdo" ~ts:(ticks st)
            ~args:
              [
                ("kernel", Json.Str name);
                ("signature", Json.Str signature);
                ("alternative", Json.Int !best);
                ("spec", Json.Str (List.nth descs !best));
                ("seconds", Json.Float !best_t);
              ]
            "tdo:choice";
          Option.iter
            (fun key ->
              Cache.add st.config.cache ~ns:"tdo" key
                (Json.Obj
                   [
                     ("choice", Json.Int !best);
                     ("spec", Json.Str (List.nth descs !best));
                     ("seconds", Json.Float !best_t);
                   ]))
            ckey;
          !best
        end
        end
      in
      Hashtbl.replace st.choices (aid, signature) k;
      k

(** TDO trials: every candidate runs on a private state — a
    copy-on-write clone of the machine, private copies of the buffers
    it can write and its own environment — so a trial leaves no trace
    on the live machine, buffers or bindings and sees exactly the
    pre-search state the committed execution starts from. The clones
    share the live L2 rows and read-only buffers, which is sound
    because the live state does not run until every trial has
    finished. Trials fan out over the persistent pool ([jobs = 1] is a
    plain in-order map). The shared memo tables (per-site stats,
    fissioned regions, compiled kernels) are warmed first so trials
    only read them, and trials run with the tracer off: the caller
    reports them in index order. *)
and trial_times st ~name ~wid regions =
  let written =
    List.mapi
      (fun k region ->
        let region = if cpu_mode st then cpu_lowered st ~wid ~alt:k region else region in
        ignore (kernel_stats st ~wid ~alt:k region);
        (match st.config.engine with
        | Engine.Compiled ->
            List.iter
              (fun i ->
                match i with
                | Instr.Parallel { level = Instr.Blocks; _ } -> ignore (compiled_kernel st i)
                | _ -> ())
              region
        | Engine.Interp -> ());
        (* the region the trial executes, after lowering *)
        written_memrefs region)
      regions
    |> Array.of_list
  in
  let jobs = if List.exists has_nested_site regions then 1 else st.config.jobs in
  let config = { st.config with tracer = Tracer.disabled } in
  Pgpu_support.Pool.map (Pgpu_support.Pool.get ()) ~jobs
    (fun (k, region) ->
      let ts =
        {
          st with
          config;
          machine = Exec.clone_machine st.machine;
          env = clone_trial_env ~written:written.(k) st.env;
          records = [];
          trial = true;
        }
      in
      try exec_kernel_region ts ~name ~wid ~alt:k region
      with Timing.Infeasible _ | Exec.Device_error _ -> infinity)
    (List.mapi (fun k r -> (k, r)) regions)
  |> Array.of_list

and exec_wrapper st ~name ~wid (body : Instr.block) =
  match body with
  | [ Instr.Alternatives { aid; descs; regions } ] ->
      let signature =
        if st.config.tune then launch_signature st ~wid body else ""
      in
      let ckey =
        if st.config.tune then tdo_cache_key st ~wid ~signature descs body else None
      in
      let k = choose_alternative st ~name ~wid ~signature ?ckey aid descs regions in
      ignore (exec_kernel_region st ~name ~wid ~alt:k (List.nth regions k))
  | _ -> ignore (exec_kernel_region st ~name ~wid ~alt:(-1) body)

(* ------------------------------------------------------------------ *)
(* Host control flow                                                   *)
(* ------------------------------------------------------------------ *)

and exec_host_block st (block : Instr.block) : [ `Fallthrough | `Yield of Exec.rv list | `Yield_while of bool * Exec.rv list | `Return of Exec.rv list ] =
  let rec go = function
    | [] -> `Fallthrough
    | i :: rest -> (
        match i with
        | Instr.Yield vs -> `Yield (List.map (lookup st) vs)
        | Instr.Yield_while (c, vs) -> `Yield_while (as_int st c <> 0, List.map (lookup st) vs)
        | Instr.Return vs -> `Return (List.map (lookup st) vs)
        | _ ->
            exec_host_instr st i;
            go rest)
  in
  go block

and exec_host_instr st (i : Instr.instr) : unit =
  charge st st.config.host_op_cost;
  match i with
  | Instr.Let (v, e) -> bind st v (eval_host_expr st v e)
  | Instr.Store { mem; idx; v } ->
      let b = as_buf st mem and k = as_int st idx in
      if Types.is_float (Types.elem mem.Value.ty) then Memory.set_f b k (as_float st v)
      else Memory.set_i b k (as_int st v)
  | Instr.If { cond; results; then_; else_ } -> (
      let branch = if as_int st cond <> 0 then then_ else else_ in
      match exec_host_block st branch with
      | `Yield vs -> List.iter2 (bind st) results vs
      | `Fallthrough when results = [] -> ()
      | _ -> host_fail "malformed host if")
  | Instr.For { iv; lb; ub; step; iter_args; inits; results; body } ->
      let l0 = as_int st lb and u = as_int st ub and s = as_int st step in
      if s <= 0 then host_fail "host for loop with non-positive step";
      List.iter2 (fun a init -> bind st a (lookup st init)) iter_args inits;
      let k = ref l0 in
      while !k < u do
        bind st iv (Exec.UI !k);
        (match exec_host_block st body with
        | `Yield vs -> List.iter2 (bind st) iter_args vs
        | _ -> host_fail "malformed host for");
        k := !k + s
      done;
      List.iter2 (fun r a -> bind st r (lookup st a)) results iter_args
  | Instr.While { iter_args; inits; results; body } ->
      List.iter2 (fun a init -> bind st a (lookup st init)) iter_args inits;
      let continue_ = ref true in
      while !continue_ do
        match exec_host_block st body with
        | `Yield_while (c, vs) ->
            List.iter2 (bind st) iter_args vs;
            if not c then continue_ := false
        | _ -> host_fail "malformed host while"
      done;
      List.iter2 (fun r a -> bind st r (lookup st a)) results iter_args
  | Instr.Alloc { res; space; elt; count } ->
      bind st res (Exec.UB (Memory.alloc st.machine.Exec.alloc space elt (as_int st count)))
  | Instr.Free _ -> ()
  | Instr.Memcpy { dst; src; count } ->
      let d = as_buf st dst and s = as_buf st src in
      let n = as_int st count in
      Memory.copy ~dst:d ~src:s n;
      let bytes = float_of_int (n * Memory.elt_size d) in
      let crosses_pcie = d.Memory.space <> s.Memory.space in
      let seconds =
        if crosses_pcie then
          st.config.memcpy_overhead
          +. (bytes /. (st.config.target.Descriptor.h2d_bandwidth_gbs *. 1e9))
        else bytes /. (st.config.target.Descriptor.mem_bandwidth_gbs *. 1e9)
      in
      let t0 = ticks st in
      charge st seconds;
      if not st.trial then
        Tracer.span_at st.config.tracer ~cat:"memcpy" ~ts:t0 ~dur:(seconds *. 1e6)
          ~args:
            [
              ("bytes", Json.Float bytes);
              ("pcie", Json.Bool crosses_pcie);
              ("seconds", Json.Float seconds);
            ]
          "memcpy"
  | Instr.Gpu_wrapper { wid; name; body } -> exec_wrapper st ~name ~wid body
  | Instr.Intrinsic { results; name; args } -> eval_intrinsic st results name args
  | Instr.Alternatives _ -> host_fail "alternatives outside gpu_wrapper"
  | Instr.Parallel _ | Instr.Barrier _ | Instr.Alloc_shared _ ->
      host_fail "device construct in host code"
  | Instr.Yield _ | Instr.Yield_while _ | Instr.Return _ -> host_fail "stray terminator"

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

(** Run function [fname] of module [m] with the given arguments.
    Returns the function results and the final state (composite time,
    launch records, buffers still bound in the environment). *)
let run ?(fname = "main") config (m : Instr.modul) (args : Exec.rv list) =
  let f = Instr.find_func m fname in
  if List.length f.Instr.params <> List.length args then
    host_fail "%s expects %d arguments, got %d" fname (List.length f.Instr.params)
      (List.length args);
  let st = create config in
  List.iter2 (bind st) f.Instr.params args;
  let cache_on = Cache.enabled config.cache in
  let th0, tm0, _ = if cache_on then Cache.ns_stats config.cache "tdo" else (0, 0, 0) in
  match exec_host_block st f.Instr.body with
  | `Return vs ->
      (* per-run TDO cache telemetry (deltas over this run) and
         write-back; gated on an enabled cache so default traces are
         unchanged *)
      if cache_on then begin
        let th1, tm1, _ = Cache.ns_stats config.cache "tdo" in
        Log.debug (fun k ->
            k "TDO cache: %d hit(s), %d miss(es)" (th1 - th0) (tm1 - tm0));
        Tracer.counter config.tracer ~ts:(ticks st) "cache.tdo.hits"
          (float_of_int (th1 - th0));
        Tracer.counter config.tracer ~ts:(ticks st) "cache.tdo.misses"
          (float_of_int (tm1 - tm0));
        Cache.flush config.cache
      end;
      (vs, st)
  | _ -> host_fail "%s did not return" fname

(** Launch records in program order. *)
let records st = List.rev st.records

let composite_seconds st = st.composite

let buffer_contents rv =
  match rv with
  | Exec.UB b -> Memory.to_float_list b
  | _ -> host_fail "expected a buffer result"
