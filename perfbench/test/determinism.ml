(* The benchmark's determinism test. For every workload, two short
   digest runs at one seed must print identical input and output
   digests, and a run at another seed must draw different inputs.

     determinism PERFBENCH_EXE SERVE_EXE KERNELS_DIR *)

module J = Srfa_server.Protocol

let last_line exe args =
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let rec drain last =
    match input_line ic with line -> drain (Some line) | exception End_of_file -> last
  in
  let last = drain None in
  match (Unix.close_process_in ic, last) with
  | Unix.WEXITED 0, Some line -> line
  | _ -> failwith (String.concat " " (exe :: args) ^ ": failed")

let digests ~exe ~serve ~kernels workload seed =
  let line =
    last_line exe
      [
        "--workload"; workload; "--seed"; string_of_int seed; "--seconds"; "1"; "--trace"; "0";
        "--digest"; "--serve-exe"; serve; "--kernels-dir"; kernels;
      ]
  in
  let json = J.parse_json line in
  let field k = match J.member k json with Some (J.Str s) -> s | _ -> failwith line in
  (field "inputs", field "outputs")

let () =
  match Sys.argv with
  | [| _; exe; serve; kernels |] ->
    let failures = ref 0 in
    List.iter
      (fun workload ->
        let a = digests ~exe ~serve ~kernels workload 1 in
        let b = digests ~exe ~serve ~kernels workload 1 in
        let c = digests ~exe ~serve ~kernels workload 2 in
        let same_inputs = fst a = fst b and same_outputs = snd a = snd b in
        let moved = fst a <> fst c in
        Printf.printf "%s: seed 1 twice: inputs %s, outputs %s; seed 2: inputs %s\n" workload
          (if same_inputs then "equal" else "DIFFER")
          (if same_outputs then "equal" else "DIFFER")
          (if moved then "differ" else "UNCHANGED");
        if not (same_inputs && same_outputs && moved) then incr failures)
      [ "cold-compile"; "design-space"; "serve-mix" ];
    exit (if !failures = 0 then 0 else 1)
  | _ ->
    prerr_endline "usage: determinism PERFBENCH_EXE SERVE_EXE KERNELS_DIR";
    exit 2
