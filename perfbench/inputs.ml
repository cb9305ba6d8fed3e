(* Seeded input generators. Everything a workload feeds the program is
   drawn here from [--seed]; the program sees only the generated kernel
   texts, event streams and request lines. Size variants keep a
   family's iteration count near a fixed target while the seed moves its
   shape, so a different seed changes the inputs without changing how
   much work they are. *)

module Prng = Srfa_util.Prng
module Kernels = Srfa_kernels.Kernels
module Parser = Srfa_frontend.Parser
module Gen = Srfa_fuzzer.Gen
module Allocator = Srfa_core.Allocator

type source = {
  label : string;
  text : string;
  algorithm : Allocator.algorithm;
  budget : int;
}

let families = [ "fir"; "dec-fir"; "imi"; "mat"; "pat"; "bic" ]

(* A renamed nest is first sight to every cache: the kernel name is part
   of the canonical source the serve tiers hash. *)
let rename name text =
  let brace = String.index text '{' in
  Printf.sprintf "kernel %s %s" name
    (String.sub text brace (String.length text - brace))

(* One size variant of a paper family with about [target] iterations. *)
let variant rng ~target family =
  let per shape = max 1 (target / shape) in
  match family with
  | "fir" ->
    let taps = 16 + Prng.int rng 33 in
    Kernels.fir ~taps ~samples:(per taps + taps - 1) ()
  | "dec-fir" ->
    let taps = 16 + (4 * Prng.int rng 9) and decimation = 2 + Prng.int rng 3 in
    Kernels.dec_fir ~taps ~decimation
      ~samples:(((per taps - 1) * decimation) + taps)
      ()
  | "imi" ->
    let frames = 2 + Prng.int rng 4 and width = 16 + Prng.int rng 17 in
    Kernels.imi ~frames ~width ~height:(per (frames * width)) ()
  | "mat" ->
    (* one size parameter: the variant is the target's cube root *)
    Kernels.mat ~size:(int_of_float (Float.cbrt (float_of_int target))) ()
  | "pat" ->
    let pattern = 16 + Prng.int rng 33 in
    Kernels.pat ~pattern ~text:(per pattern + pattern - 1) ()
  | "bic" ->
    let template = 4 + Prng.int rng 5 in
    let positions =
      max 1 (int_of_float (sqrt (float_of_int target)) / template)
    in
    Kernels.bic ~template ~image:(positions + template - 1) ()
  | other -> invalid_arg ("Inputs.variant: " ^ other)

let variant_source rng ~target ~name family =
  rename name (Parser.print (variant rng ~target family))

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* The shipped kernel sources, in file-name order. *)
let kernel_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".k")
  |> List.sort compare
  |> List.map (fun f -> (Filename.chop_suffix f ".k", read_file (Filename.concat dir f)))

(* The first [valid] valid and [mask] mask-stress fuzz cases of the
   seed's campaign. *)
let fuzz_cases ~seed ~valid ~mask =
  let rec go id v m acc =
    if v = 0 && m = 0 then List.rev acc
    else
      let c = Gen.generate ~seed ~id in
      match c.Gen.kind with
      | Gen.Valid when v > 0 -> go (id + 1) (v - 1) m (c :: acc)
      | Gen.Mask_stress when m > 0 -> go (id + 1) v (m - 1) (c :: acc)
      | _ -> go (id + 1) v m acc
  in
  go 0 valid mask []

(* ---- cold-compile corpus ---------------------------------------------- *)

(* The corpus: every selected shipped source under both algorithms, two
   size variants per listed family (one per algorithm, shapes drawn from
   the seed), and a few fuzz cases. The fuzz cases come from the pinned
   fuzz campaign (seed 42, the fuzz smoke test's): their sizes are not
   controlled, so drawing them from the run seed would move the corpus's
   cost from seed to seed; the seed still orders them. *)
type corpus_size = {
  files : string list option;  (** [None]: every shipped source *)
  variant_families : string list;
  target : int;
  valid : int;
  mask : int;
}

let full_corpus =
  { files = None; variant_families = families; target = 16_000; valid = 4; mask = 2 }

let probe_corpus =
  {
    files = Some [ "example"; "fir"; "mat" ];
    variant_families = [ "fir"; "mat" ];
    target = 4_000;
    valid = 1;
    mask = 0;
  }

let fuzz_seed = 42

let both f = [ f Allocator.Cpa_ra; f Allocator.Portfolio ]

let corpus ~seed ~kernels_dir size =
  let rng = Prng.create ~seed:(Prng.mix seed 0x636f6c64) in
  let shipped =
    kernel_files kernels_dir
    |> List.filter (fun (name, _) ->
           match size.files with None -> true | Some fs -> List.mem name fs)
    |> List.concat_map (fun (name, text) ->
           both (fun algorithm ->
               {
                 label = Printf.sprintf "%s.k/%s" name (Allocator.name algorithm);
                 text;
                 algorithm;
                 budget = 64;
               }))
  in
  let variants =
    List.concat_map
      (fun family ->
        both (fun algorithm ->
            let name =
              Printf.sprintf "%s_%s"
                (String.map (function '-' -> '_' | c -> c) family)
                (if algorithm = Allocator.Cpa_ra then "a" else "b")
            in
            {
              label = name;
              text = variant_source rng ~target:size.target ~name family;
              algorithm;
              budget = 64;
            }))
      size.variant_families
  in
  let fuzz =
    List.mapi
      (fun i (c : Gen.case) ->
        {
          label = Printf.sprintf "gen-%d-%s" c.Gen.id (Gen.kind_name c.Gen.kind);
          text = c.Gen.source;
          algorithm = (if i mod 2 = 0 then Allocator.Cpa_ra else Allocator.Portfolio);
          budget = c.Gen.budget;
        })
      (fuzz_cases ~seed:fuzz_seed ~valid:size.valid ~mask:size.mask)
  in
  let all = Array.of_list (shipped @ variants @ fuzz) in
  Prng.shuffle rng all;
  Array.to_list all

(* ---- design-space inputs ---------------------------------------------- *)

(* [per_kernel] budget-event streams for each kernel in [kernels], taken
   in id order from the seed's stream campaign and cut to their first
   [stream_events] events, so every seed replays as many events. *)
let stream_events = 6

let streams ~seed ~kernels ~per_kernel =
  let want = Hashtbl.create 8 in
  List.iter (fun k -> Hashtbl.replace want k per_kernel) kernels;
  let rec go id left acc =
    if left = 0 then List.rev acc
    else
      let s = Gen.generate_stream ~seed ~id in
      match Hashtbl.find_opt want s.Gen.kernel with
      | Some n when n > 0 ->
        Hashtbl.replace want s.Gen.kernel (n - 1);
        let events = List.filteri (fun i _ -> i < stream_events) s.Gen.events in
        go (id + 1) (left - 1) ({ s with Gen.events } :: acc)
      | _ -> go (id + 1) left acc
  in
  go 0 (per_kernel * List.length kernels) []

(* bic is left to the sweep: one bic session costs as much as all the
   others together, and how many distinct budgets its six events visit
   would decide the phase's time. *)
let stream_kernels_full = [ "example"; "fir"; "dec-fir"; "imi"; "mat"; "pat" ]
let stream_kernels_probe = [ "example"; "fir"; "dec-fir"; "mat" ]

let sweep_kernels_probe ~seed =
  let rng = Prng.create ~seed:(Prng.mix seed 0x73776570) in
  [
    ("example", Kernels.example ());
    ("fir-v", variant rng ~target:4_000 "fir");
    ("mat-v", variant rng ~target:4_000 "mat");
  ]

(* ---- serve-mix request stream ----------------------------------------- *)

(* What a response must look like for the correctness gate. *)
type expect =
  | Report of {
      nest : unit -> Srfa_ir.Nest.t;
      device : Srfa_hw.Device.t;
      algorithm : Allocator.algorithm;
      budget : int;
    }  (** an allocate answer, byte-compared with [Flow.Core.checked] *)
  | Frontier of string  (** an explore answer for this request line *)
  | Answer  (** rebudget or stats: any ok answer *)
  | Code of string  (** an error answer carrying this diagnostic code *)

type request = { line : string; kind : string; expect : expect }

(* The request population of the repository's perf-serve campaign
   (bench/main.ml): the six paper kernels, its five budgets and all six
   algorithms. *)
let hot_kernels = List.map fst (Kernels.all ())
let hot_budgets = [ 8; 16; 32; 64; 128 ]
let hot_algorithms = Allocator.all

let named kernel () = Option.get (Kernels.find kernel)

let allocate_request ~kernel ~algorithm ~budget =
  {
    line =
      Printf.sprintf {|{"kernel": "%s", "budget": %d, "algorithm": "%s"}|} kernel budget
        (Allocator.name algorithm);
    kind = "hit";
    expect = Report { nest = named kernel; device = Srfa_hw.Device.xcv1000; algorithm; budget };
  }

(* perf-serve's device variant: the kernel on the larger part, every
   other field at its protocol default. *)
let device_request kernel =
  {
    line = Printf.sprintf {|{"kernel": "%s", "device": "xc2v6000"}|} kernel;
    kind = "device";
    expect =
      Report
        {
          nest = named kernel;
          device = Srfa_hw.Device.xc2v6000;
          algorithm = Allocator.Cpa_ra;
          budget = 64;
        };
  }

(* The hot set: every (kernel, budget, algorithm) request perf-serve
   draws, plus its six device variants. Set-up sends each once, so the
   run's allocate and device requests are tier-2 hits. The seed orders
   it and picks the hits. *)
let hot_set ~seed =
  let product =
    List.concat_map
      (fun kernel ->
        List.concat_map
          (fun budget ->
            List.map (fun algorithm -> (kernel, algorithm, budget)) hot_algorithms)
          hot_budgets)
      hot_kernels
    |> Array.of_list
  in
  Prng.shuffle (Prng.create ~seed:(Prng.mix seed 0x686f74)) product;
  (Array.to_list product
  |> List.map (fun (kernel, algorithm, budget) ->
         allocate_request ~kernel ~algorithm ~budget))
  @ List.map device_request hot_kernels

let explore_specs =
  [
    {|"orders": "identity", "budgets": "8,16,32,64"|};
    {|"orders": "all", "budgets": "8,16,32,64"|};
    {|"orders": "identity", "tiles": "2", "budgets": "8,32"|};
  ]

(* The request stream: an endless seeded sequence dealt in shuffled
   decks of a hundred. The deck is perf-serve's mix (bench/main.ml, one
   roll per request out of 100), with that campaign's shares as fixed
   counts so every seed sends the same op mix:

   - 55 random (kernel, budget, algorithm) requests, of which 48 stay
     allocate requests over the hot set and 7 carry the operations
     perf-serve does not send: 3 first-sight inline sources (tier-1
     misses, cycling through [miss_families] at one size target), 3
     rebudget events on two streams and 1 explore spec;
   - 20 repeats of the last allocate request;
   - 7 device variants;
   - 6 infeasible budgets (E-BUDGET-001);
   - 5 unknown kernels (E-PROTO-002);
   - 4 malformed lines (E-PROTO-001);
   - 3 stats.

   The seed moves the order, the shapes and the picks. *)
let deck =
  [
    ("hit", 48); ("miss", 3); ("rebudget", 3); ("explore", 1); ("repeat", 20); ("device", 7);
    ("infeasible", 6); ("unknown", 5); ("malformed", 4); ("stats", 3);
  ]

let deck_size = List.fold_left (fun n (_, k) -> n + k) 0 deck

let miss_families = [| "fir"; "dec-fir"; "pat" |]
let rebudget_kernels = [| "fir"; "mat" |]

let serve_stream ~seed ~hot =
  let rng = Prng.create ~seed:(Prng.mix seed 0x73657276) in
  let allocates = Array.of_list (List.filter (fun r -> r.kind = "hit") hot) in
  let devices = Array.of_list (List.filter (fun r -> r.kind = "device") hot) in
  let last = ref allocates.(0) in
  let fresh = ref 0 in
  let pending = ref [] in
  let deal () =
    let d = Array.of_list (List.concat_map (fun (k, n) -> List.init n (fun _ -> k)) deck) in
    Prng.shuffle rng d;
    pending := Array.to_list d
  in
  fun () ->
    if !pending = [] then deal ();
    let kind = List.hd !pending in
    pending := List.tl !pending;
    match kind with
    | "miss" ->
      let family = miss_families.(!fresh mod Array.length miss_families) in
      incr fresh;
      let name =
        Printf.sprintf "%s_s%d_n%d"
          (String.map (function '-' -> '_' | c -> c) family)
          (seed land 0xffff) !fresh
      in
      let text = variant_source rng ~target:6_000 ~name family in
      {
        line = Printf.sprintf {|{"source": "%s", "budget": 64}|} (Measure.escape text);
        kind;
        expect =
          Report
            {
              nest = (fun () -> Parser.parse text);
              device = Srfa_hw.Device.xcv1000;
              algorithm = Allocator.Cpa_ra;
              budget = 64;
            };
      }
    | "rebudget" ->
      let s = Prng.int rng 2 in
      {
        line =
          Printf.sprintf {|{"op": "rebudget", "kernel": "%s", "stream": "s%d", "budget": %d}|}
            rebudget_kernels.(s) s
            (Prng.pick rng [ 8; 16; 24; 32; 48; 64; 96; 128 ]);
        kind;
        expect = Answer;
      }
    | "explore" ->
      let line =
        Printf.sprintf {|{"op": "explore", "kernel": "example", %s}|}
          (Prng.pick rng explore_specs)
      in
      { line; kind; expect = Frontier line }
    | "repeat" -> { !last with kind }
    | "device" -> devices.(Prng.int rng (Array.length devices))
    | "infeasible" ->
      {
        line = Printf.sprintf {|{"kernel": "%s", "budget": 1}|} (Prng.pick rng hot_kernels);
        kind;
        expect = Code "E-BUDGET-001";
      }
    | "unknown" -> { line = {|{"kernel": "no-such-kernel"}|}; kind; expect = Code "E-PROTO-002" }
    | "malformed" -> { line = "} definitely not json {"; kind; expect = Code "E-PROTO-001" }
    | "stats" -> { line = {|{"op": "stats"}|}; kind; expect = Answer }
    | _ ->
      last := allocates.(Prng.int rng (Array.length allocates));
      !last
